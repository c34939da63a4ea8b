package platform

import "fmt"

// XYPath returns the XY route from core a to core b: first along the row of a
// (horizontal links) to the column of b, then along that column (vertical
// links) to b. This is the routing used by the Random heuristic (Section 5.1)
// and, implicitly, by the communication accounting of DPA2D (Section 5.3:
// communications leave a column on the source row and are redistributed
// vertically in the destination column). The result is the ordered list of
// directed links; it is empty when a == b.
func (pl *Platform) XYPath(a, b Core) []Link {
	if !pl.InBounds(a) || !pl.InBounds(b) {
		panic(fmt.Sprintf("platform: XYPath out of bounds: %v -> %v", a, b))
	}
	var path []Link
	cur := a
	for cur.V != b.V {
		next := Core{cur.U, cur.V + 1}
		if b.V < cur.V {
			next = Core{cur.U, cur.V - 1}
		}
		path = append(path, Link{cur, next})
		cur = next
	}
	for cur.U != b.U {
		next := Core{cur.U + 1, cur.V}
		if b.U < cur.U {
			next = Core{cur.U - 1, cur.V}
		}
		path = append(path, Link{cur, next})
		cur = next
	}
	return path
}

// YXPath returns the YX route from core a to core b: first along the column
// of a (vertical links) to the row of b, then along that row (horizontal
// links) to b. It is the transpose of XYPath; a mapping may pin YX routes
// through Mapping.Paths.
func (pl *Platform) YXPath(a, b Core) []Link {
	if !pl.InBounds(a) || !pl.InBounds(b) {
		panic(fmt.Sprintf("platform: YXPath out of bounds: %v -> %v", a, b))
	}
	var path []Link
	cur := a
	for cur.U != b.U {
		next := Core{cur.U + 1, cur.V}
		if b.U < cur.U {
			next = Core{cur.U - 1, cur.V}
		}
		path = append(path, Link{cur, next})
		cur = next
	}
	for cur.V != b.V {
		next := Core{cur.U, cur.V + 1}
		if b.V < cur.V {
			next = Core{cur.U, cur.V - 1}
		}
		path = append(path, Link{cur, next})
		cur = next
	}
	return path
}

// Manhattan returns the Manhattan distance between two cores, which is the
// number of links on any minimal route between them.
func Manhattan(a, b Core) int {
	return abs(a.U-b.U) + abs(a.V-b.V)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ValidatePath checks that path is a connected sequence of valid directed
// links from a to b, visiting no core twice (cycle-free, as required by the
// ILP's communication constraints).
func (pl *Platform) ValidatePath(a, b Core, path []Link) error {
	if a == b {
		if len(path) != 0 {
			return fmt.Errorf("platform: non-empty path between identical cores")
		}
		return nil
	}
	if len(path) == 0 {
		return fmt.Errorf("platform: empty path between distinct cores %v and %v", a, b)
	}
	// visited is indexed u*Q+v; a itself is matched by value, since only
	// hops that passed the adjacency check are known to be on the grid.
	visited := make([]bool, pl.NumCores())
	cur := a
	for i, l := range path {
		if l.From != cur {
			return fmt.Errorf("platform: path hop %d starts at %v, want %v", i, l.From, cur)
		}
		if !pl.Adjacent(l.From, l.To) {
			return fmt.Errorf("platform: path hop %d is not a grid link: %v", i, l)
		}
		to := l.To.U*pl.Q + l.To.V
		if l.To == a || visited[to] {
			return fmt.Errorf("platform: path revisits core %v", l.To)
		}
		visited[to] = true
		cur = l.To
	}
	if cur != b {
		return fmt.Errorf("platform: path ends at %v, want %v", cur, b)
	}
	return nil
}
