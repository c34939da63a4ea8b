package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// contentKeyVersion tags the canonical CellSpec serialization. Bump it
// whenever the serialization below changes — the golden test in hash_test.go
// pins the exact digests, so any drift (a new hashed field, a reordering, a
// framing change) fails loudly instead of silently splitting or, worse,
// aliasing the content-addressed result store.
const contentKeyVersion = "spgcell/v1"

// ContentKey returns the canonical content hash of the spec: a stable,
// versioned digest of every field that can influence the solved result, and
// of nothing else. Two specs share a ContentKey exactly when solving them
// produces byte-identical CellResults (per-cell determinism is proven by the
// equivalence suites), which is what makes the key safe to address the
// ResultStore with.
//
// Hashed: the workload's (kind, params) lowering (the variant's kind and its
// JSON parameters), ScaleCCR, CCR, the grid,
// the resolved division cap, and the result-affecting Options fields (Seed,
// RandomTrials, DPA1DMaxStates, DPA1DMaxTransitions, KeepMappings).
//
// Excluded on purpose:
//   - Key and CacheKey — campaign-local addressing; hashing them would stop
//     identical work from ever deduplicating across campaigns.
//
// Every field is written length- or width-framed (no delimiter ambiguity):
// strings and raw params as u32 length + bytes, integers as fixed 8-byte
// little-endian, floats as their IEEE-754 bit patterns, booleans as one
// byte. MaxDivisions is hashed resolved (0 and DefaultMaxDivisions collide
// deliberately — they describe the same work).
//
// The error is a malformed workload spec (zero or several variants set, or
// an inline graph with no JSON form); such a cell cannot be addressed and
// must bypass the store.
func (s CellSpec) ContentKey() (string, error) {
	kind, params, err := s.Workload.kindParams()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	w := contentHasher{h: h}
	w.str(contentKeyVersion)
	w.str(kind)
	w.str(string(params))
	w.boolean(s.ScaleCCR)
	w.f64(s.CCR)
	w.i64(int64(s.P))
	w.i64(int64(s.Q))
	w.i64(int64(s.maxDivisions()))
	w.i64(s.Opts.Seed)
	w.i64(int64(s.Opts.RandomTrials))
	w.i64(int64(s.Opts.DPA1DMaxStates))
	w.i64(int64(s.Opts.DPA1DMaxTransitions))
	w.boolean(s.Opts.KeepMappings)
	sum := h.Sum(nil)
	return "v1-" + hex.EncodeToString(sum[:16]), nil
}

// contentHasher frames primitive values into a hash so that no two distinct
// field sequences share an input stream.
type contentHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (w *contentHasher) str(s string) {
	binary.LittleEndian.PutUint32(w.buf[:4], uint32(len(s)))
	w.h.Write(w.buf[:4])
	w.h.Write([]byte(s))
}

func (w *contentHasher) i64(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
	w.h.Write(w.buf[:])
}

func (w *contentHasher) f64(v float64) {
	binary.LittleEndian.PutUint64(w.buf[:], math.Float64bits(v))
	w.h.Write(w.buf[:])
}

func (w *contentHasher) boolean(v bool) {
	w.buf[0] = 0
	if v {
		w.buf[0] = 1
	}
	w.h.Write(w.buf[:1])
}
