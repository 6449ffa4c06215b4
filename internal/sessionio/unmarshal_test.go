package sessionio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/crawler"
)

// fixturePayloads returns the six crawled sessions the journal's tests
// read (`phishcrawl -sites 200 -seed 42 -o`, 3.9–11 KB each).
func fixturePayloads(tb testing.TB) [][]byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "journal", "testdata", "sessions.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(data), []byte("\n"))
}

// sameAsEncodingJSON fails t unless unmarshal and json.Unmarshal agree on
// data: both fail with the same error, or both give deep-equal logs that
// marshal to the same bytes. It reports whether data took the fast path.
func sameAsEncodingJSON(t *testing.T, data []byte) (fast bool) {
	t.Helper()
	var probe crawler.SessionLog
	fast = decodeFast(data, &probe)
	var got, want crawler.SessionLog
	gotErr := unmarshal(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if fast && wantErr != nil {
		t.Fatalf("fast path accepted what json.Unmarshal refuses (%v):\n%s", wantErr, data)
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("unmarshal: %v, json.Unmarshal: %v (fast %v):\n%s", gotErr, wantErr, fast, data)
	}
	if wantErr != nil {
		return fast
	}
	if !reflect.DeepEqual(got, want) || fast && !reflect.DeepEqual(probe, want) {
		t.Fatalf("unmarshal differs from json.Unmarshal (fast %v):\n%s", fast, data)
	}
	g, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("unmarshal re-marshals as\n%s\njson.Unmarshal as\n%s", g, w)
	}
	return fast
}

// edit returns payload with the value of the first "key": replaced by
// value, or nil when payload has no such key.
func edit(payload []byte, key, value string) []byte {
	at := bytes.Index(payload, []byte(`"`+key+`":`))
	if at < 0 {
		return nil
	}
	start := at + len(key) + 3
	dec := json.NewDecoder(bytes.NewReader(payload[start:]))
	var skip json.RawMessage
	if dec.Decode(&skip) != nil {
		return nil
	}
	end := start + int(dec.InputOffset())
	return append(append(append([]byte{}, payload[:start]...), value...), payload[end:]...)
}

// sliceKeys are the keys of every slice in a session log's type tree.
var sliceKeys = []string{"Pages", "NetLog", "Trace", "Fields", "Listeners", "ScriptSrcs", "Detections", "DetectionHashes", "CarriedData", "Thumb", "Attempts", "Signals"}

// FuzzUnmarshal: for any input, the session decoder agrees with
// json.Unmarshal, either both failing with the same error or both giving
// deep-equal logs that marshal to the same bytes; and whatever the fast
// path accepts, json.Unmarshal accepts. The seeds are the crawled
// fixture sessions, a log with every field set, and one-edit variants of
// them at the edges of the fast path's grammar.
func FuzzUnmarshal(f *testing.F) {
	full, err := json.Marshal(filledLog())
	if err != nil {
		f.Fatal(err)
	}
	payloads := append(fixturePayloads(f), full)
	for _, p := range payloads {
		f.Add(p)
	}
	p := payloads[0]
	variants := [][]byte{
		bytes.Replace(p, []byte(`"SiteID"`), []byte(`"Site\u0049D"`), 1),
		bytes.Replace(p, []byte(`"SiteID"`), []byte(`"siteid"`), 1),
		bytes.Replace(p, []byte(`{`), []byte(`{"Extra":1,`), 1),
		bytes.Replace(p, []byte(`{`), []byte(`{"SiteID":"dup",`), 1),
		edit(p, "PHash", "[1,2,3]"),
		edit(p, "PHash", "[1,2,3,4,5]"),
		edit(p, "Status", "1e3"),
		edit(p, "Status", "99999999999999999999"),
		edit(p, "Index", "-0"),
		edit(p, "Title", `"\ud800"`),
		edit(p, "Title", "\"\xff\""),
		append(append([]byte{}, p...), " x"...),
	}
	for _, key := range sliceKeys {
		for _, pl := range payloads {
			variants = append(variants, edit(pl, key, "null"), edit(pl, key, "[]"))
		}
	}
	for _, v := range variants {
		if v != nil {
			f.Add(v)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsEncodingJSON(t, data)
	})
}

// TestFixturesDecodeFast: every crawled fixture session takes the fast
// path and decodes as json.Unmarshal does.
func TestFixturesDecodeFast(t *testing.T) {
	for i, p := range fixturePayloads(t) {
		if !sameAsEncodingJSON(t, p) {
			t.Errorf("fixture session %d fell back to encoding/json", i)
		}
	}
}

// TestEveryFieldDecodesFast is the drift guard: a log with every exported
// field of its type tree set to a distinct non-zero value takes the fast
// path and reads back equal. A field added to the tree without a case in
// the decoder fails here instead of sending every session down the slow
// path.
func TestEveryFieldDecodesFast(t *testing.T) {
	want := filledLog()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got crawler.SessionLog
	if !decodeFast(data, &got) {
		t.Fatalf("a log with every field set fell back to encoding/json:\n%s", data)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, *want)
	}
	sameAsEncodingJSON(t, data)
}

// TestFallbacks: each edit of a fixture session that leaves the fast
// path's grammar falls back, and the result is still encoding/json's.
func TestFallbacks(t *testing.T) {
	p := fixturePayloads(t)[0]
	for name, data := range map[string][]byte{
		"escaped key":      bytes.Replace(p, []byte(`"SiteID"`), []byte(`"Site\u0049D"`), 1),
		"case-variant key": bytes.Replace(p, []byte(`"SiteID"`), []byte(`"siteid"`), 1),
		"unknown key":      bytes.Replace(p, []byte(`{`), []byte(`{"Extra":1,`), 1),
		"duplicated key":   bytes.Replace(p, []byte(`{`), []byte(`{"SiteID":"dup",`), 1),
		"short PHash":      edit(p, "PHash", "[1,2,3]"),
		"long PHash":       edit(p, "PHash", "[1,2,3,4,5]"),
		"int as 1e3":       edit(p, "Status", "1e3"),
		"int overflow":     edit(p, "Status", "99999999999999999999"),
		"null string":      edit(p, "Title", "null"),
		"string as number": edit(p, "Title", "7"),
		"trailing bytes":   append(append([]byte{}, p...), " x"...),
	} {
		if sameAsEncodingJSON(t, data) {
			t.Errorf("%s: took the fast path", name)
		}
	}
}

// TestFastEdges: edits that stay inside the grammar keep the fast path
// and decode as encoding/json does, null and [] alike.
func TestFastEdges(t *testing.T) {
	p := fixturePayloads(t)[0]
	for name, data := range map[string][]byte{
		"-0 int":           edit(p, "Index", "-0"),
		"escaped string":   edit(p, "Title", `"a\"bé\n"`),
		"lone surrogate":   edit(p, "Title", `"\ud800"`),
		"invalid UTF-8":    edit(p, "Title", "\"\xff\""),
		"null slice":       edit(p, "Fields", "null"),
		"empty slice":      edit(p, "Fields", "[]"),
		"whitespace":       bytes.ReplaceAll(p, []byte(`,`), []byte(" ,\n\t")),
		"reordered fields": edit(p, "Box", `{"H":1,"W":2,"Y":3,"X":4}`),
	} {
		if !sameAsEncodingJSON(t, data) {
			t.Errorf("%s: fell back to encoding/json", name)
		}
	}
	var lg crawler.SessionLog
	if !decodeFast(edit(p, "Fields", "[]"), &lg) || lg.Pages[0].Fields == nil {
		t.Fatal("[] did not decode as an empty slice that is not nil")
	}
}

// filledLog returns a session log with every exported field of its type
// tree set to a distinct non-zero value: two elements per slice, every
// array element, every pointer allocated.
func filledLog() *crawler.SessionLog {
	lg := new(crawler.SessionLog)
	n := 0
	fill(reflect.ValueOf(lg).Elem(), &n)
	return lg
}

func fill(v reflect.Value, n *int) {
	*n++
	if v.Type() == reflect.TypeOf(time.Time{}) {
		v.Set(reflect.ValueOf(time.Date(2024, 1, 1, 0, 0, *n, *n, time.UTC)))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint8:
		v.SetUint(uint64(*n % 256))
	case reflect.Uint64:
		v.SetUint(1<<63 + uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			fill(v.Index(i), n)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	default:
		panic("fill: no value for " + v.Type().String())
	}
}

// BenchmarkUnmarshal decodes the six crawled fixture sessions: "session"
// with the session decoder, "encoding-json" with json.Unmarshal, the
// decode each payload took before it.
func BenchmarkUnmarshal(b *testing.B) {
	payloads := fixturePayloads(b)
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte, *crawler.SessionLog) error
	}{
		{"session", unmarshal},
		{"encoding-json", func(data []byte, lg *crawler.SessionLog) error { return json.Unmarshal(data, lg) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range payloads {
					if err := bc.decode(p, new(crawler.SessionLog)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
