package sim

// DefaultOptions simulates 256 data sets with periodic arrivals.
func DefaultOptions() Options { return Options{DataSets: 256} }
