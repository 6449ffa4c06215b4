package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestStatusSmoke is the live-progress smoke run wired into `make
// status-smoke` (and `make chaos`): start a short crawl with -status-addr,
// hit the endpoint while the run is in flight, and require well-formed
// JSON with the documented fields plus a readable plain-text view.
func TestStatusSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "phishcrawl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building phishcrawl: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-sites", "200", "-workers", "8", "-detector-train", "100", "-seed", "7",
		"-status-addr", "127.0.0.1:0", "-progress", "50ms")
	cmd.Stderr = io.Discard // the -progress lines; the test reads the endpoint
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Scrape the resolved listen address from the serving banner, draining
	// the rest of stdout in the background so the process never blocks on a
	// full pipe.
	const banner = "Status: serving live progress on http://"
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), banner); ok {
				addrCh <- strings.TrimSuffix(rest, "/status")
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("status banner never appeared on stdout")
	}

	// Poll the JSON endpoint while the crawl runs, keeping the most
	// advanced snapshot; the process serves from before model training
	// through the end of the crawl, so some poll lands mid-flight.
	getJSON := func() (statusView, error) {
		var v statusView
		resp, err := http.Get(base + "/status?format=json")
		if err != nil {
			return v, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return v, fmt.Errorf("status %s", resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			return v, fmt.Errorf("Content-Type = %q, want application/json", ct)
		}
		return v, json.NewDecoder(resp.Body).Decode(&v)
	}

	var last statusView
	var text string
	polls := 0
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		v, err := getJSON()
		if err != nil {
			// The process exits (closing the server) when the crawl ends;
			// everything we need must have been observed by then.
			break
		}
		polls++
		if v.Done >= last.Done {
			last = v
		}
		if text == "" {
			// Grab the plain-text twin while the server is certainly alive.
			if resp, err := http.Get(base + "/status"); err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				text = string(body)
			}
		}
		if v.Total > 0 && v.Done == v.Total {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if polls == 0 {
		t.Fatal("never got a successful JSON response from /status")
	}
	if last.Total != 200 {
		t.Errorf("total = %d, want 200", last.Total)
	}
	if last.Done == 0 {
		t.Error("no completed sessions ever reported")
	}
	if last.ElapsedMs <= 0 {
		t.Errorf("elapsedMs = %d, want > 0", last.ElapsedMs)
	}
	// The plain-text view is the human-facing twin of the same snapshot.
	if text == "" {
		t.Fatal("never captured the plain-text status view")
	}
	if !strings.Contains(text, "progress:") {
		t.Errorf("text view missing progress line:\n%s", text)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("phishcrawl exited with %v", err)
	}
}
