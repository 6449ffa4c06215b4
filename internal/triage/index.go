package triage

import (
	"sort"

	"repro/internal/phash"
	"repro/internal/visualphish"
)

// Bands splits the 256-bit perceptual hash into 16 bands of 16 bits for
// LSH candidate lookup: two pages from the same kit agree on (nearly) every
// band, so they collide in (nearly) every bucket, while unrelated pages
// rarely collide in any. Lookup cost is then O(candidates), not O(index).
const Bands = 16

const bandBits = phash.Bits / Bands // 16

// DefaultCampaignThreshold is the similarity (see Similarity) at or above
// which a probed page is attributed to an indexed campaign. Calibrated
// against the synthetic corpus: identical kit deployments score 1.0 (equal
// DOM hash) and near-duplicates stay above 0.9, while distinct campaigns —
// pHash distance >= 10 of 256 plus embedding divergence — fall below 0.8
// even when they share a brand.
const DefaultCampaignThreshold = 0.9

// Similarity scores two fingerprints in [0, 1]. Equal non-empty content
// hashes are a byte-identical kit deployment: similarity 1. Otherwise the
// perceptual distance blends the raw pHash (normalized over the meaningful
// range, 16 bits — twice the distance-8 radius analysis clusters campaigns
// at, so a distinct campaign at distance >= 8 already loses >= 0.25
// similarity from this term alone) with the visualphish embedding distance
// (thumbnail + histogram + hash; its same-design range is ~[0, 0.5]).
func Similarity(a, b *Fingerprint) float64 {
	if a.ContentHash != "" && a.ContentHash == b.ContentHash {
		return 1
	}
	hd := float64(phash.Distance(a.PHash, b.PHash)) / 16
	if hd > 1 {
		hd = 1
	}
	vd := visualphish.Distance(a.Emb, b.Emb) / 0.5
	if vd > 1 {
		vd = 1
	}
	return 1 - 0.5*hd - 0.5*vd
}

// Index is the campaign near-duplicate index: one representative
// fingerprint per discovered campaign, reachable by exact content hash or
// by pHash band collision. Campaign IDs are dense ints in founding order.
type Index struct {
	reps    []*Fingerprint
	content map[string]int
	buckets [Bands]map[uint16][]int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{content: map[string]int{}}
	for b := range ix.buckets {
		ix.buckets[b] = map[uint16][]int{}
	}
	return ix
}

// Len returns the number of indexed campaigns.
func (ix *Index) Len() int { return len(ix.reps) }

// bandKey extracts band b (0..Bands-1) of h as a bucket key.
func bandKey(h phash.Hash, b int) uint16 {
	word := h[b*bandBits/64]
	return uint16(word >> (uint(b*bandBits) % 64))
}

// Add founds a new campaign represented by fp and returns its ID.
func (ix *Index) Add(fp *Fingerprint) int {
	id := len(ix.reps)
	ix.reps = append(ix.reps, fp)
	if fp.ContentHash != "" {
		if _, taken := ix.content[fp.ContentHash]; !taken {
			ix.content[fp.ContentHash] = id
		}
	}
	for b := 0; b < Bands; b++ {
		k := bandKey(fp.PHash, b)
		ix.buckets[b][k] = append(ix.buckets[b][k], id)
	}
	return id
}

// Lookup finds the indexed campaign most similar to fp. The candidate set
// is gathered by computed key only — never by ranging over a bucket map —
// and sorted by campaign ID before scoring, so the best match (ties broken
// toward the earliest-founded campaign) is identical in every process
// regardless of map iteration order.
func (ix *Index) Lookup(fp *Fingerprint) (campaign int, sim float64, ok bool) {
	if fp.ContentHash != "" {
		if id, hit := ix.content[fp.ContentHash]; hit {
			return id, 1, true
		}
	}
	seen := map[int]bool{}
	var cand []int
	for b := 0; b < Bands; b++ {
		for _, id := range ix.buckets[b][bandKey(fp.PHash, b)] {
			if !seen[id] {
				seen[id] = true
				cand = append(cand, id)
			}
		}
	}
	sort.Ints(cand)
	best, bestSim := -1, 0.0
	for _, id := range cand {
		if s := Similarity(fp, ix.reps[id]); s > bestSim {
			best, bestSim = id, s
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestSim, true
}
