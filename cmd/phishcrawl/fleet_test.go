package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestFleetSmoke is the distributed-determinism smoke run wired into
// `make fleet-smoke` (and `make chaos`): a first worker SIGKILLs itself
// after its crashAt-th journaled session, inside its first lease (which
// must then expire and be re-issued), two more workers crawl the rest, and
// the coordinator's merged export and per-stage timing table must match a
// single-process run byte-for-byte — N processes × M workers ≡ 1 × 1.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a multi-process fleet")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "phishcrawl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building phishcrawl: %v\n%s", err, out)
	}

	args := []string{"-sites", "300", "-workers", "8", "-detector-train", "150", "-seed", "42"}

	// Reference: one uninterrupted single-process run.
	clean := filepath.Join(dir, "clean.jsonl")
	cleanCmd := exec.Command(bin, append(append([]string{}, args...), "-o", clean)...)
	cleanOutB, err := cleanCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("single-process run: %v\n%s", err, cleanOutB)
	}
	cleanOut := string(cleanOutB)

	// Fleet run: coordinator on a kernel-assigned loopback port, output
	// teed to a file so the test can learn the resolved address.
	jdir := filepath.Join(dir, "journal")
	merged := filepath.Join(dir, "fleet.jsonl")
	coordLog, err := os.Create(filepath.Join(dir, "coordinator.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer coordLog.Close()
	coordArgs := append(append([]string{}, args...),
		"-coordinator", "-fleet-addr", "127.0.0.1:0",
		"-journal", jdir, "-lease-sites", "60", "-lease-ttl", "2s", "-o", merged)
	coord := exec.Command(bin, coordArgs...)
	coord.Stdout = coordLog
	coord.Stderr = coordLog
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if coord.ProcessState == nil {
			coord.Process.Kill()
			coord.Wait()
		}
	}()
	readCoordLog := func() string {
		b, _ := os.ReadFile(coordLog.Name())
		return string(b)
	}

	// Learn the coordinator's address from its startup banner.
	addrRe := regexp.MustCompile(`coordinating \d+ URLs on http://([0-9.]+:\d+)`)
	var addr string
	deadline := time.Now().Add(30 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(readCoordLog()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced its address:\n%s", readCoordLog())
		}
		time.Sleep(10 * time.Millisecond)
	}

	startWorker := func(name string, env ...string) *exec.Cmd {
		w := exec.Command(bin, append(append([]string{}, args...),
			"-worker", "-fleet-addr", addr, "-journal", jdir, "-worker-name", name)...)
		w.Env = append(os.Environ(), env...)
		out, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { out.Close() })
		w.Stdout = out
		w.Stderr = out
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		return w
	}

	// w1 runs alone and kills itself inside its first 60-site lease, so
	// the range MUST be re-issued. Its shard journal holds exactly the
	// sessions appended before the kill.
	const crashAt = 20
	victim := startWorker("w1", "PHISHCRAWL_CRASH_AFTER="+strconv.Itoa(crashAt))
	err = victim.Wait()
	victimLog, _ := os.ReadFile(filepath.Join(dir, "w1.log"))
	if ws, ok := victim.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("w1 exited with %v, want death by SIGKILL:\n%s", err, victimLog)
	}
	m := regexp.MustCompile(`crawling lease \d+ \S+ \(attempt 1\) into (\S+)`).FindSubmatch(victimLog)
	if m == nil {
		t.Fatalf("w1 never announced its lease:\n%s", victimLog)
	}
	shard, err := journal.Open(string(m[1]), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := shard.CompletedCount(); n != crashAt {
		t.Errorf("w1's shard journal holds %d sessions, want exactly %d", n, crashAt)
	}
	if err := shard.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("w1 killed itself after %d sessions of its lease", crashAt)
	survivor := startWorker("w2")

	// A replacement joins mid-run, like an operator restarting the dead
	// process.
	replacement := startWorker("w3")

	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, readCoordLog())
	}
	coordOut := readCoordLog()
	if !strings.Contains(coordOut, "re-issuing") {
		t.Errorf("killed worker's lease was never re-issued; coordinator log:\n%s", coordOut)
	}
	if !strings.Contains(coordOut, "Fleet: all leases complete") {
		t.Errorf("merge banner missing from coordinator output:\n%s", coordOut)
	}
	// Surviving workers observe the completed run and exit cleanly.
	for name, w := range map[string]*exec.Cmd{"w2": survivor, "w3": replacement} {
		if err := w.Wait(); err != nil {
			b, _ := os.ReadFile(filepath.Join(dir, name+".log"))
			t.Errorf("worker %s exited with %v:\n%s", name, err, b)
		}
	}

	// The merged fleet view must equal the single-process run exactly:
	// stage percentiles (session-logical clocks) and the full export bytes.
	cleanStages := stageTable(t, cleanOut)
	fleetStages := stageTable(t, coordOut)
	if cleanStages != fleetStages {
		t.Errorf("per-stage timing diverges between single-process and fleet runs:\nsingle:\n%s\nfleet:\n%s",
			cleanStages, fleetStages)
	}
	cleanBytes := readExport(t, clean)
	fleetBytes := readExport(t, merged)
	if cleanBytes != fleetBytes {
		cl := strings.Split(cleanBytes, "\n")
		fl := strings.Split(fleetBytes, "\n")
		n := 0
		for n < len(cl) && n < len(fl) && cl[n] == fl[n] {
			n++
		}
		t.Fatalf("fleet export diverges from single-process run at line %d (single %d lines, fleet %d)",
			n+1, len(cl), len(fl))
	}
}
