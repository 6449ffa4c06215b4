package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/farm"
)

// statusView is the JSON shape GET /status?format=json serves. Durations
// are flattened to integer milliseconds so the payload stays trivially
// parseable from shell tooling (jq, curl | python).
type statusView struct {
	Total        int     `json:"total"`
	Done         int     `json:"done"`
	PreCompleted int     `json:"preCompleted"`
	Retried      int     `json:"retried"`
	Degraded     int     `json:"degraded"`
	Failed       int     `json:"failed"`
	Panics       int     `json:"panics"`
	FastPathed   int     `json:"fastPathed"`
	ElapsedMs    int64   `json:"elapsedMs"`
	EtaMs        int64   `json:"etaMs"`
	SitesPerDay  float64 `json:"sitesPerDay"`
}

func makeStatusView(p farm.Progress) statusView {
	return statusView{
		Total:        p.Total,
		Done:         p.Done,
		PreCompleted: p.PreCompleted,
		Retried:      p.Retried,
		Degraded:     p.Degraded,
		Failed:       p.Failed,
		Panics:       p.Panics,
		FastPathed:   p.FastPathed,
		ElapsedMs:    p.Elapsed.Milliseconds(),
		EtaMs:        p.ETA.Milliseconds(),
		SitesPerDay:  p.SitesPerDay,
	}
}

// statusHandler serves live run progress at /status: the one-line
// progress summary as plain text by default, JSON with ?format=json.
func statusHandler(mon *farm.Monitor) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		p := mon.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(makeStatusView(p))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, p.String())
	})
	return mux
}

// serve binds addr, named by flagName in a bind error, and serves h on it
// until the returned server is closed. It returns the server (so the
// caller can Close it) and the resolved listen address — pass ":0" or
// "127.0.0.1:0" to let the kernel pick a free port.
func serve(flagName, addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("%s %s: %w", flagName, addr, err)
	}
	srv := &http.Server{Handler: h}
	//phishvet:ignore goroleak: Serve is stopped by the caller's deferred srv.Close; its return error is the normal ErrServerClosed
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// startProgressLog prints line() to stderr every interval. The returned
// stop function halts the ticker and prints one final line so the last
// state of a finished crawl is always visible, however the interval
// aligned.
func startProgressLog(line func() string, every time.Duration) (stop func()) {
	tick := time.NewTicker(every)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-tick.C:
				fmt.Fprintln(os.Stderr, line())
			case <-done:
				return
			}
		}
	}()
	return func() {
		tick.Stop()
		close(done)
		<-finished
		fmt.Fprintln(os.Stderr, line())
	}
}
