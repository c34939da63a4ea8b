// Package nofuse exercises the nofuse analyzer: a float product used as an
// operand of an addition or a subtraction may fuse into a multiply-add.
package nofuse

type platform struct{ leak, dyn []float64 }

// energy is the shape of platform.CoreEnergy before its conversion.
func energy(pl *platform, work, T, speed float64, idx int) float64 {
	return pl.leak[idx]*T + work/speed*pl.dyn[idx] // want `float product` `float product`
}

// converted rounds each product explicitly: nothing may fuse.
func converted(pl *platform, work, T, speed float64, idx int) float64 {
	return float64(pl.leak[idx]*T) + float64(work/speed*pl.dyn[idx])
}

// accumulate is the evaluator's energy sum before its conversion.
func accumulate(ws []float64, T, p float64) (sum, diff float64) {
	for _, w := range ws {
		sum += w * p    // want `float product`
		diff -= (w * T) // want `float product`
	}
	return sum, diff
}

// accumulateConverted is the same sum with the rounding made explicit.
func accumulateConverted(ws []float64, p float64) (sum float64) {
	for _, w := range ws {
		sum += float64(w * p)
	}
	return sum
}

// signs look through parentheses and unary minus, which round nothing.
func signs(x, y, z float64) (float64, float64) {
	return z - (x * y), -(x * y) + z // want `float product` `float product`
}

// nested flags the outer product of a chained multiplication.
func nested(x, y, z, w float64) float64 {
	return x*y*z + w // want `float product`
}

// spelledOut is an accumulation written without a compound operator.
func spelledOut(sum, w, p float64) float64 {
	sum = sum + w*p // want `float product`
	return sum
}

// float32s fuse too.
func float32s(x, y, z float32) float32 {
	return x*y + z // want `float product`
}

// integers never fuse.
func integers(i, j, k int) int {
	return i*j + k
}

// constants are folded at compile time.
const scale = 2.5 * 4.0

func constants(x float64) float64 {
	return x + 2.5*4.0 + scale
}

// quotients and lone products do not fuse.
func quotients(x, y, z float64) (float64, float64) {
	return x/y + z, x * y
}

// offsets of integer products in index arithmetic are not floats.
func index(xs []float64, i, stride int) float64 {
	return xs[i*stride+1] + xs[i*stride-1]
}

// suppressed carries a reasoned exemption.
func suppressed(x, y, z float64) float64 {
	//spglint:ignore nofuse the fixture checks that a reasoned directive silences the finding
	return x*y + z
}
