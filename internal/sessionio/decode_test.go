package sessionio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/crawler"
)

// goroutinesSettle waits until no more than want goroutines run: the
// decoders of a read that has returned must all have exited.
func goroutinesSettle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the read, %d before:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// manyLogs is a JSON Lines export of n sessions, with a blank line after
// every tenth.
func manyLogs(t *testing.T, n int) (logs []*crawler.SessionLog, export []string) {
	t.Helper()
	for i := range n {
		lg := sampleLogs()[i%2]
		lg.SeedURL = fmt.Sprintf("http://host%d.test/", i)
		lg.FeedIndex = i
		logs = append(logs, lg)
		var buf bytes.Buffer
		if err := Write(&buf, []*crawler.SessionLog{lg}); err != nil {
			t.Fatal(err)
		}
		export = append(export, strings.TrimSuffix(buf.String(), "\n"))
		if i%10 == 9 {
			export = append(export, "")
		}
	}
	return logs, export
}

// TestReadManyInOrder: a parallel read returns every session of a long
// export in file order.
func TestReadManyInOrder(t *testing.T) {
	want, export := manyLogs(t, 500)
	got, err := Read(strings.NewReader(strings.Join(export, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Read of a long export differs from the sessions written")
	}
}

// TestReadFirstBadLine: of two lines that do not decode, the error names
// the first in the file, however the decoders race. The first is slow to
// fail (its error is at the end of 1 MB) and the second fails on its first
// byte, so a decoder usually sees the second fail first.
func TestReadFirstBadLine(t *testing.T) {
	_, export := manyLogs(t, 300)
	export[100] = `{"SiteID":"` + strings.Repeat("a", 1<<20) + `"}}`
	export[200] = `not json`
	input := strings.Join(export, "\n")

	before := runtime.NumGoroutine()
	for range 5 {
		_, err := Read(strings.NewReader(input))
		if err == nil || !strings.HasPrefix(err.Error(), "sessionio: line 101:") {
			t.Fatalf("Read: err = %v, want line 101's decode error", err)
		}
		goroutinesSettle(t, before)
	}
}

// TestReadErrorStopsDecoders: a failing reader is Read's error when every
// line before it decoded, a bad line before it wins over it, and neither
// a reader error nor a panic in the reading leaves a decoder running.
func TestReadErrorStopsDecoders(t *testing.T) {
	_, export := manyLogs(t, 100)
	input := strings.Join(export, "\n") + "\n"
	broken := errors.New("disk gone")
	before := runtime.NumGoroutine()

	_, err := Read(io.MultiReader(strings.NewReader(input), iotest.ErrReader(broken)))
	if !errors.Is(err, broken) {
		t.Fatalf("Read: err = %v, want the reader's error", err)
	}
	goroutinesSettle(t, before)

	export[50] = "{"
	_, err = Read(io.MultiReader(strings.NewReader(strings.Join(export, "\n")+"\n"), iotest.ErrReader(broken)))
	if err == nil || errors.Is(err, broken) || !strings.HasPrefix(err.Error(), "sessionio: line ") {
		t.Fatalf("Read: err = %v, want the bad line's decode error", err)
	}
	goroutinesSettle(t, before)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic in produce did not reach the caller")
			}
		}()
		_, _ = Decode(func(emit func(uint64, []byte) error) error {
			for i, line := range export[:9] {
				if err := emit(uint64(i), []byte(line)); err != nil {
					return err
				}
			}
			panic("reader failed")
		}, func(_ uint64, err error) error { return err })
	}()
	goroutinesSettle(t, before)
}
