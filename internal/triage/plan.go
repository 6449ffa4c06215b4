package triage

import (
	"encoding/json"
	"fmt"

	"repro/internal/browser"
	"repro/internal/crawler"
)

// Options are the operator-facing triage knobs (mirrored by the
// cmd/phishcrawl -campaign-threshold and -triage-topk flags).
type Options struct {
	// CampaignThreshold is the attribution similarity cut in [0, 1]
	// (0 = DefaultCampaignThreshold).
	CampaignThreshold float64
	// TopK, when > 0, keeps only the K lexically highest-scored feed
	// entries; the rest are cut before any fetch happens.
	TopK int
}

func (o Options) withDefaults() Options {
	if o.CampaignThreshold == 0 {
		o.CampaignThreshold = DefaultCampaignThreshold
	}
	return o
}

// Config configures plan building.
type Config struct {
	Options
	// Workers bounds probe parallelism (<= 0 probes serially).
	Workers int
	// NewBrowser builds the probe browser — the same factory (same
	// transport, same chaos wrap, same fetch timeout) the crawler uses.
	NewBrowser func() *browser.Browser
	// BrandTokens is the lowercase brand vocabulary for the lexical
	// brand-in-host feature.
	BrandTokens []string
	// Memo, when non-nil, is the crawl's page memo: probes take each
	// landing page's pHash and embedding from it (see crawler.Memo.Look),
	// so a content seen before is not rendered again, and the sessions
	// crawling the same content later find what the probes stored. The
	// plan is the same either way.
	Memo *crawler.Memo
}

// Decision is a plan entry's fate.
type Decision string

const (
	// DecisionFull sends the URL through a full interactive crawl session
	// (and, when its probe was healthy, founds a new indexed campaign).
	DecisionFull Decision = "full"
	// DecisionAttributed fast-paths the URL: its probe matched an indexed
	// campaign at or above the threshold, so the session is synthesized
	// from the probe fingerprint.
	DecisionAttributed Decision = "attributed"
	// DecisionCut drops the URL at the lexical stage (-triage-topk).
	DecisionCut Decision = "cut"
)

// PlanEntry is the triage verdict for one feed index.
type PlanEntry struct {
	FeedIndex int
	URL       string
	Score     float64
	Decision  Decision
	// Campaign is the triage campaign key ("tc-00012"): the campaign this
	// entry founded (full, healthy probe) or was attributed to. Empty for
	// cut entries and full sessions whose probe failed.
	Campaign string
	// Similarity is the attribution similarity (attributed entries only).
	Similarity float64

	fp *Fingerprint
}

// Plan is the precomputed triage verdict for a whole feed: a pure function
// of (feed URLs, Config), so every worker count, resumed run, and fleet
// member derives the identical plan.
type Plan struct {
	Threshold float64
	TopK      int
	Entries   []PlanEntry
	// Campaigns is the number of campaigns the index discovered.
	Campaigns int
}

// CampaignKey names triage campaign id in logs and reports.
func CampaignKey(id int) string { return fmt.Sprintf("tc-%05d", id) }

// BuildPlan scores, cuts, probes, and clusters the feed. Stage order:
// lexical scores for every URL; the optional top-K cut; one probe fetch per
// surviving URL (parallel — fingerprints are pure per URL); then a
// sequential feed-order pass over the banded index assigning each healthy
// probe to an existing campaign (>= threshold) or founding a new one.
func BuildPlan(urls []string, cfg Config) *Plan {
	opts := cfg.Options.withDefaults()
	p := &Plan{Threshold: opts.CampaignThreshold, TopK: opts.TopK, Entries: make([]PlanEntry, len(urls))}

	scores, order := Rank(urls, cfg.BrandTokens)
	eligible := make([]bool, len(urls))
	for rank, idx := range order {
		eligible[idx] = opts.TopK <= 0 || rank < opts.TopK
	}

	fps := probeAll(urls, eligible, cfg.Workers, cfg.NewBrowser, cfg.Memo)

	ix := NewIndex()
	for i, u := range urls {
		e := PlanEntry{FeedIndex: i, URL: u, Score: scores[i], Decision: DecisionFull, fp: fps[i]}
		switch {
		case !eligible[i]:
			e.Decision = DecisionCut
		case fps[i] == nil || !fps[i].OK:
			// Unhealthy probe: the full session classifies the failure.
		default:
			if id, sim, ok := ix.Lookup(fps[i]); ok && sim >= opts.CampaignThreshold {
				e.Decision = DecisionAttributed
				e.Campaign = CampaignKey(id)
				e.Similarity = sim
			} else {
				e.Campaign = CampaignKey(ix.Add(fps[i]))
			}
		}
		p.Entries[i] = e
	}
	p.Campaigns = ix.Len()
	return p
}

// FastPath returns the synthesized session log for a fast-pathed feed
// index, or nil when the URL needs a full crawl. Each call builds a fresh
// log (the farm's completion path mutates it). This is the farm's
// pre-session hook: a non-nil return costs no browser session.
func (p *Plan) FastPath(idx int, url string) *crawler.SessionLog {
	if p == nil || idx < 0 || idx >= len(p.Entries) || p.Entries[idx].URL != url {
		return nil
	}
	e := &p.Entries[idx]
	switch e.Decision {
	case DecisionCut:
		return &crawler.SessionLog{
			SeedURL:     url,
			Outcome:     crawler.OutcomeTriagedOut,
			TriageScore: e.Score,
		}
	case DecisionAttributed:
		fp := e.fp
		lg := &crawler.SessionLog{
			SeedURL:          url,
			Outcome:          crawler.OutcomeAttributed,
			TriageScore:      e.Score,
			TriageCampaign:   e.Campaign,
			TriageSimilarity: e.Similarity,
		}
		if fp != nil {
			lg.Pages = []crawler.PageLog{{
				URL:     fp.URL,
				Host:    fp.Host,
				Status:  fp.Status,
				Title:   fp.Title,
				Text:    fp.Text,
				DOMHash: fp.DOMHash,
				PHash:   fp.PHash,
			}}
			lg.FirstPageEmbedding = fp.Emb
		}
		return lg
	}
	return nil
}

// Stamp attaches the plan's verdict to a finished session log (full
// sessions get their lexical score and, when their probe founded a
// campaign, the campaign key; fast-path logs already carry theirs). Keyed
// by the log's FeedIndex.
func (p *Plan) Stamp(lg *crawler.SessionLog) {
	if p == nil || lg == nil || lg.FeedIndex < 0 || lg.FeedIndex >= len(p.Entries) {
		return
	}
	e := &p.Entries[lg.FeedIndex]
	if e.URL != lg.SeedURL {
		return
	}
	lg.TriageScore = e.Score
	if lg.TriageCampaign == "" {
		lg.TriageCampaign = e.Campaign
	}
	if e.Decision == DecisionAttributed {
		lg.TriageSimilarity = e.Similarity
	}
}

// Funnel summarizes the plan's stage counts.
type Funnel struct {
	Total      int
	Cut        int
	Attributed int
	Full       int
}

// Funnel counts the plan's decisions.
func (p *Plan) Funnel() Funnel {
	f := Funnel{Total: len(p.Entries)}
	for i := range p.Entries {
		switch p.Entries[i].Decision {
		case DecisionCut:
			f.Cut++
		case DecisionAttributed:
			f.Attributed++
		default:
			f.Full++
		}
	}
	return f
}

// planRecord is the byte form of a plan: config plus the per-entry
// verdicts and campaign index assignments — compact (no fingerprints), and
// canonical (field order fixed by the struct), so two encodings of the same
// plan are byte-equal.
type planRecord struct {
	Threshold float64       `json:"threshold"`
	TopK      int           `json:"topK"`
	Campaigns int           `json:"campaigns"`
	Entries   []entryRecord `json:"entries"`
}

type entryRecord struct {
	Decision   Decision `json:"d"`
	Score      float64  `json:"s"`
	Campaign   string   `json:"c,omitempty"`
	Similarity float64  `json:"m,omitempty"`
}

// Encode serializes the plan's verdicts in canonical form, so two plans
// can be compared byte for byte (the plan is a pure function of the feed
// and the triage options, whatever the probe parallelism).
func (p *Plan) Encode() ([]byte, error) {
	rec := planRecord{Threshold: p.Threshold, TopK: p.TopK, Campaigns: p.Campaigns,
		Entries: make([]entryRecord, len(p.Entries))}
	for i := range p.Entries {
		e := &p.Entries[i]
		rec.Entries[i] = entryRecord{Decision: e.Decision, Score: e.Score,
			Campaign: e.Campaign, Similarity: e.Similarity}
	}
	return json.Marshal(&rec)
}
