// Package feed simulates the OpenPhish premium feed of Section 4.6: a
// stream of reported phishing URLs annotated with the targeted brand and
// industry sector, polluted with a small fraction of benign URLs ("noise")
// that a commercial phishing-detection product filters out before crawling
// (Table 1: 56,027 seed URLs -> 51,859 confirmed).
package feed

import (
	"fmt"
	"math/rand"

	"repro/internal/site"
	"repro/internal/sitegen"
)

// Entry is one feed item.
type Entry struct {
	URL    string
	Brand  string
	Sector string
	// Site is the backing synthetic site (nil for noise entries).
	Site *site.Site
	// Noise marks benign URLs that slipped into the feed.
	Noise bool
}

// Feed is the full simulated feed.
type Feed struct {
	Entries []Entry
}

// noiseHosts are benign sites that occasionally get reported.
var noiseHosts = []string{
	"blog.example.com", "shop.example.org", "news.example.net",
	"static.example.com", "cdn.example.org", "docs.example.net",
}

// FromCorpus wraps a generated corpus as a feed, interleaving noise entries
// at the paper's seed-to-confirmed ratio.
func FromCorpus(c *sitegen.Corpus, seed int64) *Feed {
	rng := rand.New(rand.NewSource(seed))
	noiseN := len(c.Sites) * (sitegen.PaperSeedURLs - sitegen.PaperFilteredSites) / sitegen.PaperFilteredSites
	f := &Feed{Entries: make([]Entry, 0, len(c.Sites)+noiseN)}
	for _, s := range c.Sites {
		f.Entries = append(f.Entries, Entry{
			URL:    s.SeedURL(),
			Brand:  s.Brand,
			Sector: string(s.Category),
			Site:   s,
		})
	}
	for i := 0; i < noiseN; i++ {
		host := noiseHosts[rng.Intn(len(noiseHosts))]
		f.Entries = append(f.Entries, Entry{
			URL:   fmt.Sprintf("http://%s/p/%d", host, rng.Intn(100000)),
			Noise: true,
		})
	}
	rng.Shuffle(len(f.Entries), func(i, j int) {
		f.Entries[i], f.Entries[j] = f.Entries[j], f.Entries[i]
	})
	return f
}

// SeedCount returns the raw feed size (the paper's 56,027 analogue).
func (f *Feed) SeedCount() int { return len(f.Entries) }

// Filter applies the vendor phishing-detection check, returning confirmed
// phishing entries only (the paper's 51,859 analogue).
func (f *Feed) Filter() []Entry {
	out := make([]Entry, 0, len(f.Entries))
	for _, e := range f.Entries {
		if !e.Noise {
			out = append(out, e)
		}
	}
	return out
}

// URLs returns the confirmed phishing URLs in feed order.
func (f *Feed) URLs() []string {
	out := make([]string, 0, len(f.Entries))
	for _, e := range f.Entries {
		if !e.Noise {
			out = append(out, e.URL)
		}
	}
	return out
}
