package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// parseCloakBanner parses the "Cloak: ..." line from a run's output.
func parseCloakBanner(t *testing.T, out string) (cloaked, sites int) {
	t.Helper()
	i := strings.Index(out, "Cloak: ")
	if i < 0 {
		t.Fatalf("no cloak banner in output:\n%s", out)
	}
	line := out[i:]
	if j := strings.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	var rate float64
	var retries int
	if _, err := fmt.Sscanf(line, "Cloak: %d of %d sites cloaked (rate %g, retries %d)",
		&cloaked, &sites, &rate, &retries); err != nil {
		t.Fatalf("unparseable cloak banner %q: %v", line, err)
	}
	return cloaked, sites
}

// benignURLs reads an export and returns the seed URLs whose session ended
// on a benign/parked page — the cloaking gate's wins.
func benignURLs(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		var rec struct {
			SeedURL string
			Outcome string
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Outcome == "benign" {
			set[rec.SeedURL] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCloakSmoke is the cloaking acceptance run wired into `make
// cloak-smoke` (and `make chaos`): on a corpus where most campaigns cloak,
// an honest crawl must lose the majority of its sites to benign decoys, the
// adaptive uncloaking loop must recover >= 90% of those losses into real
// measurements, and the adaptive crawl must stay byte-deterministic —
// identical exports at 1 and 30 workers, and across a SIGKILL + torn-tail +
// resume of a journaled run.
func TestCloakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary five times")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "phishcrawl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building phishcrawl: %v\n%s", err, out)
	}

	args := []string{"-sites", "140", "-cloak-rate", "0.7", "-detector-train", "150", "-seed", "42"}
	run := func(extra ...string) string {
		out, err := exec.Command(bin, append(append([]string{}, args...), extra...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("phishcrawl %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}

	// Honest crawl: no retries. The gates must actually bite — a majority
	// of the corpus hides behind decoys the honest profile cannot pass.
	honest := filepath.Join(dir, "honest.jsonl")
	outHonest := run("-workers", "30", "-o", honest)
	cloaked, sites := parseCloakBanner(t, outHonest)
	if sites != 140 || cloaked*2 < sites {
		t.Fatalf("corpus has %d/%d cloaked sites, want >= 50%%", cloaked, sites)
	}
	lost := benignURLs(t, honest)
	if len(lost) < cloaked {
		t.Fatalf("honest crawl saw %d benign sessions for %d cloaked sites", len(lost), cloaked)
	}

	// Adaptive crawl at two worker counts: the mutation schedule is a pure
	// function of per-session seeds, so the exports must be byte-identical.
	ad1 := filepath.Join(dir, "adaptive-w1.jsonl")
	ad30 := filepath.Join(dir, "adaptive-w30.jsonl")
	run("-cloak-retries", "5", "-workers", "1", "-o", ad1)
	run("-cloak-retries", "5", "-workers", "30", "-o", ad30)
	b1 := readExport(t, ad1)
	b30 := readExport(t, ad30)
	if b1 != b30 {
		t.Fatal("adaptive exports differ between 1 and 30 workers")
	}

	// Recovery: >= 90% of the URLs the honest crawl lost to decoys must
	// reach a real measurement under the adaptive loop.
	covered := detectedURLs(t, ad30)
	recovered := 0
	for u := range lost {
		if covered[u] {
			recovered++
		}
	}
	if recovered*10 < len(lost)*9 {
		t.Fatalf("adaptive loop recovered %d of %d cloaked URLs, want >= 90%%", recovered, len(lost))
	}

	// Kill/resume leg: journal an adaptive run, let it SIGKILL itself
	// mid-crawl, tear the tail mid-record, resume with the same flags, and
	// require the merged export to match the clean run byte-for-byte (the
	// journal's run manifest, which pins the cloak options, must match
	// this run's).
	jdir := filepath.Join(dir, "journal")
	jargs := append(append([]string{}, args...), "-cloak-retries", "5", "-workers", "30", "-journal", jdir)
	crashJournaled(t, bin, jargs, jdir, 40)

	resumed := filepath.Join(dir, "adaptive-resumed.jsonl")
	out := run("-cloak-retries", "5", "-workers", "30", "-journal", jdir, "-resume", "-o", resumed)
	if !strings.Contains(out, "Journal: resumed") {
		t.Fatalf("resume banner missing from output:\n%s", out)
	}
	if rb := readExport(t, resumed); rb != b30 {
		t.Fatal("resumed adaptive export diverges from the clean run")
	}
}
