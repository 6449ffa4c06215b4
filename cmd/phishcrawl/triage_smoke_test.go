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

// triageFunnel parses the "Triage: ..." banner from a run's output.
type triageFunnel struct {
	total, cut, attributed, campaigns, full int
}

func parseTriageBanner(t *testing.T, out string) triageFunnel {
	t.Helper()
	i := strings.Index(out, "Triage: ")
	if i < 0 {
		t.Fatalf("no triage banner in output:\n%s", out)
	}
	line := out[i:]
	if j := strings.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	var f triageFunnel
	if _, err := fmt.Sscanf(line, "Triage: %d URLs -> %d cut, %d attributed to %d campaigns, %d full sessions",
		&f.total, &f.cut, &f.attributed, &f.campaigns, &f.full); err != nil {
		t.Fatalf("unparseable triage banner %q: %v", line, err)
	}
	return f
}

// detectedURLs reads an export and returns the set of seed URLs whose
// session completed — fully crawled or attributed to a campaign. This is
// the recall set: a URL the measurement covered, whichever path it took.
func detectedURLs(t *testing.T, path string) map[string]bool {
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
		switch rec.Outcome {
		case "completed", "stuck", "page-limit", "attributed":
			set[rec.SeedURL] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return set
}

// TestTriageSmoke is the clone-heavy-feed acceptance run wired into `make
// triage-smoke` (and `make chaos`): on a feed where ~90% of URLs are
// duplicates of a handful of kits, a triage-enabled crawl must spawn >= 5x
// fewer full browser sessions than the feed has URLs, lose no detection
// recall against a full (non-triage) crawl, and stay byte-deterministic —
// identical exports at 1 and 30 workers, and across a SIGKILL + torn-tail
// + resume of a journaled triage run.
func TestTriageSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary five times")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "phishcrawl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building phishcrawl: %v\n%s", err, out)
	}

	// -campaign-min 12 clamps the generated campaign-size distribution from
	// below: 240 sites land in at most 20 campaigns, so >= 90% of the feed
	// is a near-duplicate of an earlier URL.
	args := []string{"-sites", "240", "-campaign-min", "12", "-detector-train", "150", "-seed", "42"}
	run := func(extra ...string) string {
		out, err := exec.Command(bin, append(append([]string{}, args...), extra...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("phishcrawl %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}

	// Reference: the same feed crawled in full, no triage.
	full := filepath.Join(dir, "full.jsonl")
	run("-workers", "30", "-o", full)

	// Triage at two worker counts: the plan is a pure function of the feed,
	// so the exports must be byte-identical.
	tri1 := filepath.Join(dir, "triage-w1.jsonl")
	tri30 := filepath.Join(dir, "triage-w30.jsonl")
	out1 := run("-triage", "-workers", "1", "-o", tri1)
	out30 := run("-triage", "-workers", "30", "-o", tri30)

	b1 := readExport(t, tri1)
	b30 := readExport(t, tri30)
	if b1 != b30 {
		t.Fatal("triage exports differ between 1 and 30 workers")
	}

	// The funnel: >= 5x fewer full sessions than feed URLs.
	fn := parseTriageBanner(t, out30)
	if fn.total != 240 || fn.cut != 0 {
		t.Fatalf("funnel %+v: want 240 URLs, 0 cut (no -triage-topk)", fn)
	}
	if fn.full*5 > fn.total {
		t.Fatalf("funnel %+v: %d full sessions for %d URLs, want >= 5x reduction", fn, fn.full, fn.total)
	}
	if fn.attributed == 0 || fn.campaigns == 0 {
		t.Fatalf("funnel %+v: no attribution happened", fn)
	}
	if fb := parseTriageBanner(t, out1); fb != fn {
		t.Fatalf("funnel differs between worker counts: %+v vs %+v", fb, fn)
	}

	// Recall: the set of covered URLs must be identical — every URL the
	// full crawl measured is either fully crawled or campaign-attributed
	// under triage, and nothing extra appears.
	want := detectedURLs(t, full)
	got := detectedURLs(t, tri1)
	if len(want) != 240 {
		t.Fatalf("full run covered %d of 240 URLs", len(want))
	}
	for u := range want {
		if !got[u] {
			t.Errorf("URL %s detected by the full crawl but lost under triage", u)
		}
	}
	for u := range got {
		if !want[u] {
			t.Errorf("URL %s appears only under triage", u)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Kill/resume leg: journal a triage run, let it SIGKILL itself
	// mid-crawl, tear the tail mid-record, resume with the same triage
	// flags, and require the merged export to match the clean triage run
	// byte-for-byte (the journal's run manifest, which pins the triage
	// options, must match this run's).
	jdir := filepath.Join(dir, "journal")
	jargs := append(append([]string{}, args...), "-triage", "-workers", "30", "-journal", jdir)
	crashJournaled(t, bin, jargs, jdir, 60)

	resumed := filepath.Join(dir, "triage-resumed.jsonl")
	out := run("-triage", "-workers", "30", "-journal", jdir, "-resume", "-o", resumed)
	if !strings.Contains(out, "Journal: resumed") {
		t.Fatalf("resume banner missing from output:\n%s", out)
	}
	if rb := readExport(t, resumed); rb != b30 {
		t.Fatal("resumed triage export diverges from the clean triage run")
	}
}
