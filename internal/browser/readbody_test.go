package browser

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadBodyMatchesReadAll checks readBody against io.ReadAll of the
// limited body whatever the declared length says: exact, unknown, too
// short, too long, bodies delivered a byte at a time or ending in an error.
func TestReadBodyMatchesReadAll(t *testing.T) {
	const body = "<html><body>hello, phishing world</body></html>"
	n := int64(len(body))
	readers := map[string]func() io.Reader{
		"plain":       func() io.Reader { return strings.NewReader(body) },
		"byte a time": func() io.Reader { return iotest.OneByteReader(strings.NewReader(body)) },
		"data+EOF":    func() io.Reader { return iotest.DataErrReader(strings.NewReader(body)) },
		"torn": func() io.Reader {
			return io.MultiReader(strings.NewReader(body[:10]), iotest.ErrReader(io.ErrUnexpectedEOF))
		},
	}
	for name, mk := range readers {
		for _, declared := range []int64{-1, 0, 1, n - 1, n, n + 1, 4 * n, maxBodyBytes} {
			want, wantErr := io.ReadAll(io.LimitReader(mk(), maxBodyBytes))
			got, gotErr := readBody(mk(), declared)
			if !bytes.Equal(got, want) || gotErr != wantErr {
				t.Errorf("%s, declared %d: got %q, %v; io.ReadAll gives %q, %v", name, declared, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestReadBodyAllocs pins a body as long as it declares to one buffer.
func TestReadBodyAllocs(t *testing.T) {
	const body = "<html><body>a page of a declared length</body></html>"
	r := strings.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		if _, err := readBody(r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("readBody allocates %.0f times, want 1", allocs)
	}
}
