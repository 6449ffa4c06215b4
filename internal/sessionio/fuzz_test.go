package sessionio

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRead feeds hostile JSON Lines to Read, the input of a report over a
// saved crawl: Read never panics, and whatever it accepts survives a Write
// and a second Read unchanged. The one difference allowed is an empty
// list read back as nil: an empty list under an omitempty tag (a
// session's Trace, `{"Trace":[]}`) is written as no list at all, and no
// table tells the two apart.
func FuzzRead(f *testing.F) {
	var export bytes.Buffer
	if err := Write(&export, sampleLogs()); err != nil {
		f.Fatal(err)
	}
	f.Add(export.Bytes())
	f.Add([]byte("null\n"))
	f.Add([]byte("\n\n{\"SiteID\":\"a\"}\n\n"))
	f.Add(export.Bytes()[:export.Len()/3])
	f.Add([]byte(`{"Trace":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		logs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, logs); err != nil {
			t.Fatalf("Write of accepted input: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of written sessions: %v", err)
		}
		dropEmpty(reflect.ValueOf(logs))
		dropEmpty(reflect.ValueOf(back))
		if !reflect.DeepEqual(back, logs) {
			t.Fatalf("round trip changed the sessions:\n%s", buf.Bytes())
		}
	})
}

// dropEmpty sets every empty slice reachable from v through settable
// fields and elements to nil.
func dropEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			dropEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			dropEmpty(v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			dropEmpty(v.Index(i))
		}
	case reflect.Slice:
		if v.Len() == 0 && v.CanSet() {
			v.SetZero()
		}
		for i := range v.Len() {
			dropEmpty(v.Index(i))
		}
	}
}
