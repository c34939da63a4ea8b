package platform

import "math"

// MinSpeed returns the slowest available speed.
func (pl *Platform) MinSpeed() float64 { return pl.Speeds[0] }

// Links enumerates every directed link of the grid.
func (pl *Platform) Links() []Link {
	var links []Link
	for u := 0; u < pl.P; u++ {
		for v := 0; v < pl.Q; v++ {
			c := Core{u, v}
			if u+1 < pl.P {
				d := Core{u + 1, v}
				links = append(links, Link{c, d}, Link{d, c})
			}
			if v+1 < pl.Q {
				d := Core{u, v + 1}
				links = append(links, Link{c, d}, Link{d, c})
			}
		}
	}
	return links
}

// SpeedIndex returns the index of speed s in Speeds, or -1 if s is not an
// available speed (within a small tolerance).
func (pl *Platform) SpeedIndex(s float64) int {
	for i, v := range pl.Speeds {
		if math.Abs(v-s) <= 1e-12*math.Max(1, v) {
			return i
		}
	}
	return -1
}
