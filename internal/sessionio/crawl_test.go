package sessionio_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/sessionio"
	"repro/internal/triage"
)

// TestCrawledSessionsDecodeFast: every session of a small crawl with
// chaos faults, cloaked campaigns and triage on takes the session
// decoder's fast path and decodes as json.Unmarshal does. The crawl must
// reach every optional part of a log: a Cloak, the Triage fields, a
// net-log Vary and JSChallenge, and an Error.
func TestCrawledSessionsDecodeFast(t *testing.T) {
	profile := chaos.DefaultProfile()
	p, err := core.NewPipeline(core.Options{
		NumSites: 160, Seed: 42, Workers: 2, MinCampaignSize: 8,
		Chaos: &profile, CloakRate: 0.5, CloakRetries: 2, FetchTimeout: 50 * time.Millisecond,
		Triage: &triage.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Crawl(0)
	seen := map[string]bool{}
	for _, lg := range p.Logs {
		seen["Cloak"] = seen["Cloak"] || lg.Cloak != nil
		seen["TriageScore"] = seen["TriageScore"] || lg.TriageScore != 0
		seen["TriageCampaign"] = seen["TriageCampaign"] || lg.TriageCampaign != ""
		seen["TriageSimilarity"] = seen["TriageSimilarity"] || lg.TriageSimilarity != 0
		seen["Error"] = seen["Error"] || lg.Error != ""
		for _, r := range lg.NetLog {
			seen["Vary"] = seen["Vary"] || r.Vary != ""
			seen["JSChallenge"] = seen["JSChallenge"] || r.JSChallenge != ""
		}

		data, err := json.Marshal(lg)
		if err != nil {
			t.Fatal(err)
		}
		var got, want crawler.SessionLog
		if !sessionio.DecodeFast(data, &got) {
			t.Fatalf("session %s fell back to encoding/json:\n%s", lg.SiteID, data)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s decodes unlike json.Unmarshal", lg.SiteID)
		}
	}
	for _, part := range []string{"Cloak", "TriageScore", "TriageCampaign", "TriageSimilarity", "Error", "Vary", "JSChallenge"} {
		if !seen[part] {
			t.Errorf("no crawled session has a %s", part)
		}
	}
}
