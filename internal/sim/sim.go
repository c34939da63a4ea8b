// Package sim executes a mapped streaming workflow in steady state and
// measures its achieved period, latency and resource utilization. It
// validates the analytic cycle-time model of Section 3.4: the asymptotic
// inter-departure time of data sets equals the maximum resource cycle-time
// when the input is saturated, and the input period T otherwise.
//
// The simulation works at the granularity the DAG-partition rule guarantees
// to be schedulable: each core executes its whole cluster for one data set as
// one job (the cluster quotient graph is acyclic, so cluster-level jobs have
// well-defined dependencies), and every inter-core communication hops across
// its route one link at a time. Every resource (core or directed link)
// serves its jobs in data-set order (FIFO), which models a pipelined
// execution with unbounded inter-stage buffers.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// Options controls a simulation run.
type Options struct {
	// DataSets is the number of data sets pushed through the pipeline.
	DataSets int
	// Saturated ignores the arrival period and makes every data set
	// available at time zero, which measures the intrinsic maximum
	// throughput of the mapping instead of the input-limited one.
	Saturated bool
}

// Report is the outcome of a simulation.
type Report struct {
	// MeasuredPeriod is the steady-state inter-departure time at the sink,
	// measured over the second half of the run.
	MeasuredPeriod float64
	// AnalyticPeriod is the maximum resource cycle-time of the mapping (the
	// quantity the paper bounds by T).
	AnalyticPeriod float64
	// MeanLatency is the average sink-completion minus arrival time over the
	// second half of the run (cluster-granularity latency).
	MeanLatency float64
	// Makespan is the completion time of the last data set.
	Makespan float64
	// EnergyPerDataSet is the energy of one period per the Section 3.5 model.
	EnergyPerDataSet float64
	// CoreUtilization maps each active core to busy-time/makespan.
	CoreUtilization map[platform.Core]float64
	// LinkUtilization maps each used directed link to busy-time/makespan.
	LinkUtilization map[platform.Link]float64
	// MaxCoreQueue and MaxLinkQueue report the maximum backlog (jobs ready
	// but not yet started) per resource — the buffer requirement of the
	// mapping. The DAG-partition rule exists precisely to keep these bounded
	// by the elevation (Section 3.3); saturated inputs make them grow with
	// the data-set count instead.
	MaxCoreQueue map[platform.Core]int
	MaxLinkQueue map[platform.Link]int
	// DataSets echoes the number of simulated data sets.
	DataSets int
}

// job is one unit of service on one resource for one data set.
type job struct {
	resource int
	service  float64
	deps     []int // indices of prerequisite jobs within the same data set
	arrival  bool  // depends on the data-set arrival time
}

// Run simulates the mapped workflow. The mapping must be valid for (g, pl, T)
// — Run evaluates it first and returns the evaluation error otherwise.
func Run(g *spg.Graph, pl *platform.Platform, m *mapping.Mapping, T float64, opts Options) (*Report, error) {
	res, err := mapping.Evaluate(g, pl, m, T)
	if err != nil {
		return nil, err
	}
	if opts.DataSets <= 0 {
		return nil, errors.New("sim: DataSets must be positive")
	}

	// Resources: one per active core, one per used directed link.
	resourceID := make(map[interface{}]int)
	var resourceBusy []float64
	getRes := func(key interface{}) int {
		if id, ok := resourceID[key]; ok {
			return id
		}
		id := len(resourceBusy)
		resourceID[key] = id
		resourceBusy = append(resourceBusy, 0)
		return id
	}

	// Cluster jobs, in quotient-topological order.
	cores, byCore := m.Clusters(pl)
	clusterOf := make(map[platform.Core]int, len(cores))
	for idx, c := range cores {
		clusterOf[c] = idx
	}
	order, err := quotientTopoOrder(g, m, cores, clusterOf)
	if err != nil {
		return nil, err
	}

	jobs := make([]job, 0, len(cores)+4*g.M())
	clusterJob := make([]int, len(cores))
	// First pass: create cluster jobs in topological order so that hop jobs
	// can point at them.
	stageCluster := make([]int, g.N())
	for i, c := range m.Alloc {
		stageCluster[i] = clusterOf[c]
	}
	depsOf := make([][]int, len(cores))

	for _, ci := range order {
		c := cores[ci]
		var work float64
		for _, s := range byCore[c] {
			work += g.Stages[s].Weight
		}
		speed := pl.Speeds[m.SpeedOf(pl, c)]
		clusterJob[ci] = len(jobs)
		jobs = append(jobs, job{
			resource: getRes(c),
			service:  work / speed,
			arrival:  stageCluster[g.Source()] == ci,
		})
	}

	// Hop jobs per edge; the final hop feeds the destination cluster.
	for e, edge := range g.Edges {
		a, b := m.Alloc[edge.Src], m.Alloc[edge.Dst]
		if a == b {
			continue
		}
		path := m.PathFor(pl, e, a, b)
		prev := clusterJob[stageCluster[edge.Src]]
		service := edge.Volume / pl.BW
		for _, l := range path {
			id := len(jobs)
			jobs = append(jobs, job{
				resource: getRes(l),
				service:  service,
				deps:     []int{prev},
			})
			prev = id
		}
		depsOf[stageCluster[edge.Dst]] = append(depsOf[stageCluster[edge.Dst]], prev)
	}
	for ci, deps := range depsOf {
		j := clusterJob[ci]
		jobs[j].deps = append(jobs[j].deps, deps...)
	}

	// A processing order valid within one data set: cluster jobs were
	// created in quotient-topological order, but hop jobs were appended
	// afterwards; sort indices so dependencies precede dependents.
	procOrder, err := jobTopoOrder(jobs)
	if err != nil {
		return nil, err
	}

	sinkJob := clusterJob[stageCluster[g.Sink()]]
	avail := make([]float64, len(resourceBusy))
	finish := make([]float64, len(jobs))
	departures := make([]float64, opts.DataSets)
	latencies := make([]float64, opts.DataSets)

	// Waiting intervals [ready, start) per resource, for backlog analysis.
	type waitEvent struct {
		at    float64
		delta int
	}
	waits := make([][]waitEvent, len(resourceBusy))

	for d := 0; d < opts.DataSets; d++ {
		arrivalTime := float64(d) * T
		if opts.Saturated {
			arrivalTime = 0
		}
		for _, j := range procOrder {
			jb := &jobs[j]
			ready := 0.0
			if jb.arrival {
				ready = arrivalTime
			}
			for _, dep := range jb.deps {
				if finish[dep] > ready {
					ready = finish[dep]
				}
			}
			start := ready
			if avail[jb.resource] > start {
				start = avail[jb.resource]
			}
			if start > ready {
				waits[jb.resource] = append(waits[jb.resource],
					waitEvent{ready, +1}, waitEvent{start, -1})
			}
			finish[j] = start + jb.service
			avail[jb.resource] = finish[j]
			resourceBusy[jb.resource] += jb.service
		}
		departures[d] = finish[sinkJob]
		latencies[d] = finish[sinkJob] - arrivalTime
	}

	maxBacklog := make([]int, len(resourceBusy))
	for res, events := range waits {
		sort.Slice(events, func(a, b int) bool {
			if events[a].at != events[b].at {
				return events[a].at < events[b].at
			}
			return events[a].delta < events[b].delta // close before open at ties
		})
		depth, peak := 0, 0
		for _, ev := range events {
			depth += ev.delta
			if depth > peak {
				peak = depth
			}
		}
		maxBacklog[res] = peak
	}

	rep := &Report{
		AnalyticPeriod:   res.MaxCycleTime,
		EnergyPerDataSet: res.Energy,
		Makespan:         departures[opts.DataSets-1],
		DataSets:         opts.DataSets,
		CoreUtilization:  make(map[platform.Core]float64),
		LinkUtilization:  make(map[platform.Link]float64),
		MaxCoreQueue:     make(map[platform.Core]int),
		MaxLinkQueue:     make(map[platform.Link]int),
	}
	half := opts.DataSets / 2
	if half < 1 {
		half = 1
	}
	if opts.DataSets > 1 {
		rep.MeasuredPeriod = (departures[opts.DataSets-1] - departures[half-1]) /
			float64(opts.DataSets-half)
	} else {
		rep.MeasuredPeriod = departures[0]
	}
	var latSum float64
	for d := half - 1; d < opts.DataSets; d++ {
		latSum += latencies[d]
	}
	rep.MeanLatency = latSum / float64(opts.DataSets-half+1)

	if rep.Makespan > 0 {
		for key, id := range resourceID {
			util := resourceBusy[id] / rep.Makespan
			switch k := key.(type) {
			case platform.Core:
				rep.CoreUtilization[k] = util
				rep.MaxCoreQueue[k] = maxBacklog[id]
			case platform.Link:
				rep.LinkUtilization[k] = util
				rep.MaxLinkQueue[k] = maxBacklog[id]
			}
		}
	}
	return rep, nil
}

// quotientTopoOrder orders the clusters topologically; the mapping evaluator
// guarantees acyclicity for valid mappings.
func quotientTopoOrder(g *spg.Graph, m *mapping.Mapping, cores []platform.Core, clusterOf map[platform.Core]int) ([]int, error) {
	k := len(cores)
	adj := make(map[[2]int]bool)
	succ := make([][]int, k)
	indeg := make([]int, k)
	for _, e := range g.Edges {
		a, b := clusterOf[m.Alloc[e.Src]], clusterOf[m.Alloc[e.Dst]]
		if a == b || adj[[2]int{a, b}] {
			continue
		}
		adj[[2]int{a, b}] = true
		succ[a] = append(succ[a], b)
		indeg[b]++
	}
	var queue []int
	for i := 0; i < k; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue)
	var order []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != k {
		return nil, fmt.Errorf("sim: cluster quotient graph is cyclic")
	}
	return order, nil
}

// jobTopoOrder orders job indices so that every dependency precedes its
// dependents.
func jobTopoOrder(jobs []job) ([]int, error) {
	n := len(jobs)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for j := range jobs {
		for _, d := range jobs[j].deps {
			succ[d] = append(succ[d], j)
			indeg[j]++
		}
	}
	var queue []int
	for j := 0; j < n; j++ {
		if indeg[j] == 0 {
			queue = append(queue, j)
		}
	}
	var order []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("sim: job graph is cyclic")
	}
	return order, nil
}
