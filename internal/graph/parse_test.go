package graph

import (
	"strconv"
	"strings"
	"testing"
)

// refParseEdgeLine is the edge-list grammar stated with the standard
// library: blank lines and '#'/'%' comments are skipped, otherwise the
// first two of strings.Fields must parse with strconv.ParseInt as
// non-negative int32 ids. It reports only whether the line was rejected,
// not why.
func refParseEdgeLine(line []byte) (u, v int32, ok, rejected bool) {
	s := strings.TrimSpace(string(line))
	if s == "" || s[0] == '#' || s[0] == '%' {
		return 0, 0, false, false
	}
	f := strings.Fields(s)
	if len(f) < 2 {
		return 0, 0, false, true
	}
	a, errA := strconv.ParseInt(f[0], 10, 32)
	b, errB := strconv.ParseInt(f[1], 10, 32)
	if errA != nil || errB != nil || a < 0 || b < 0 {
		return 0, 0, false, true
	}
	return int32(a), int32(b), true, false
}

// FuzzParseEdgeLine holds the byte-level parser to refParseEdgeLine: it
// never panics, an accepted line carries ids u, v ≥ 0, and it accepts,
// skips and rejects exactly the lines the reference does, with the same
// ids. The seed corpus (testdata/fuzz) covers comments, signs, the int32
// boundary, ASCII and Unicode separators and invalid UTF-8.
func FuzzParseEdgeLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		u, v, ok, err := ParseEdgeLine(line)
		if ok && (u < 0 || v < 0) {
			t.Fatalf("%q: accepted negative ids %d, %d", line, u, v)
		}
		if ok && err != nil {
			t.Fatalf("%q: ok together with error %v", line, err)
		}
		wu, wv, wok, wrejected := refParseEdgeLine(line)
		if ok != wok || (err != nil) != wrejected {
			t.Fatalf("%q: ok=%v err=%v, reference ok=%v rejected=%v", line, ok, err, wok, wrejected)
		}
		if ok && (u != wu || v != wv) {
			t.Fatalf("%q: ids %d %d, reference %d %d", line, u, v, wu, wv)
		}
	})
}
