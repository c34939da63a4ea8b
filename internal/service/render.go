package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"spgcmp/internal/engine"
)

// Every JSON body the service writes is the compact encoding/json encoding
// of its value, indented by two spaces and ending in a newline: the bytes
// json.Encoder produces with SetIndent("", "  ").

// appendIndent appends the two-space indented form of src to dst, exactly as
// json.Indent(dst, src, "", "  ") would. src must be compact encoding/json
// output: no whitespace outside strings, which lets the indenter copy
// scalars and strings in runs instead of validating byte by byte.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end]...)
			i = end - 1
		case '{', '[':
			// An empty object or array stays on one line ('}' and ']' are
			// their openers plus 2).
			if i+1 < len(src) && src[i+1] == c+2 {
				dst = append(dst, c, c+2)
				i++
				continue
			}
			depth++
			dst = appendNewline(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
		case ',':
			dst = appendNewline(append(dst, ','), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			// A number or literal runs to the next structural byte; most are
			// a digit or two, so they are copied byte by byte.
			dst = append(dst, c)
			for i+1 < len(src) && !structural[src[i+1]] {
				i++
				dst = append(dst, src[i])
			}
		}
	}
	return dst
}

// structural marks the bytes that end a number or literal in compact JSON.
var structural = [256]bool{',': true, ':': true, '{': true, '}': true, '[': true, ']': true, '"': true}

// stringEnd returns the index just past the closing quote of the string
// starting at src[start]: the first quote preceded by an even number of
// backslashes.
func stringEnd(src []byte, start int) int {
	for j := start + 1; j < len(src); {
		k := bytes.IndexByte(src[j:], '"')
		if k < 0 {
			break
		}
		j += k
		n := 0
		for m := j - 1; src[m] == '\\'; m-- {
			n++
		}
		if n%2 == 0 {
			return j + 1
		}
		j++
	}
	return len(src)
}

// newlineIndent is a newline and the indentation of up to 32 levels.
const newlineIndent = "\n                                                                "

func appendNewline(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(newlineIndent) {
		return append(dst, newlineIndent[:n]...)
	}
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// bodyPool recycles the buffers bodies are built in; a buffer that grew past
// maxPooledBody (a large campaign table) is left to the collector.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// writeIndented writes the status line and the indented form of the compact
// JSON src, newline-terminated.
func writeIndented(w http.ResponseWriter, code int, src []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	bp := bodyPool.Get().(*[]byte)
	out := append(appendIndent((*bp)[:0], src), '\n')
	_, _ = w.Write(out)
	if cap(out) <= maxPooledBody {
		*bp = out
		bodyPool.Put(bp)
	}
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	src, err := json.Marshal(v)
	if err != nil {
		// As json.Encoder: nothing past the status line.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		return
	}
	writeIndented(w, code, src)
}

// writeMapAnswer renders the /v1/map body of a stored answer: the cell's key
// spliced in front of the answer's fields, 200 when feasible and 422 when no
// heuristic succeeds. The bytes equal writeJSON of the mapResponse built
// from the same answer.
func writeMapAnswer(w http.ResponseWriter, key string, a engine.StoredAnswer) {
	code := http.StatusOK
	if !a.Feasible {
		code = http.StatusUnprocessableEntity
	}
	k, _ := json.Marshal(key) // a string always encodes
	bp := bodyPool.Get().(*[]byte)
	src := append((*bp)[:0], `{"key":`...)
	src = append(append(src, k...), ',')
	src = append(src, a.JSON[1:]...)
	writeIndented(w, code, src)
	if cap(src) <= maxPooledBody {
		*bp = src
		bodyPool.Put(bp)
	}
}
