// Package phash implements perceptual hashing of raster images, used in two
// places mirroring the paper: clustering phishing first pages into campaigns
// (Section 4.6, "using perceptual hashing, in a way similar to previous
// work") and the visual-CAPTCHA verification heuristic of Section 5.3.2
// (a detection is kept only if its pHash is within distance 20 of at least 3
// training exemplars).
//
// The hash is a 256-bit gradient (difference) hash: the image is downsampled
// to a 17x16 intensity grid and each bit records whether a cell is brighter
// than its right neighbour. Gradient hashes are robust to uniform
// brightness shifts and small noise while distinguishing different layouts.
package phash

import (
	"fmt"
	"math/bits"

	"repro/internal/raster"
)

// Bits is the number of bits in a Hash.
const Bits = 256

// GridW and GridH are the size of the intensity grid the hash compares:
// 16 comparisons per row x 16 rows = 256 bits.
const GridW, GridH = 17, 16

// Hash is a 256-bit perceptual hash.
type Hash [4]uint64

// String returns the hash as hex.
func (h Hash) String() string {
	return fmt.Sprintf("%016x%016x%016x%016x", h[0], h[1], h[2], h[3])
}

// Compute returns the perceptual hash of img.
func Compute(img *raster.Image) Hash {
	return ComputeRegion(img, raster.R(0, 0, img.W, img.H))
}

// ComputeRegion returns the perceptual hash of the pixels inside r (clipped
// to img): the hash of img.Sub(r), without the copy.
func ComputeRegion(img *raster.Image, r raster.Rect) Hash {
	if r.Clip(img.W, img.H).Empty() {
		return Hash{}
	}
	var cells [GridW * GridH]raster.Counts
	img.CellCountsInto(cells[:], r, GridW, GridH)
	return FromCells(cells[:])
}

// FromCells returns the hash of a region from its GridW x GridH cell
// counts, row-major, as raster.Image.CellCounts lays them out. Every cell
// must hold at least one pixel.
func FromCells(cells []raster.Counts) Hash {
	// Downsample intensities to GridW x GridH by block averaging.
	var grid [GridH][GridW]int
	for i, cell := range cells {
		sum, n := 0, 0
		for c, k := range cell {
			sum += int(k) * raster.ColorIntensity(raster.Color(c))
			n += int(k)
		}
		grid[i/GridW][i%GridW] = sum / n
	}
	var h Hash
	// First 128 bits: horizontal gradients on the even rows (8 rows x 16
	// comparisons). Gradients capture layout edges.
	bit := 0
	for gy := 0; gy < GridH; gy += 2 {
		for gx := 0; gx < GridW-1; gx++ {
			if grid[gy][gx] > grid[gy][gx+1] {
				h[bit/64] |= 1 << uint(bit%64)
			}
			bit++
		}
	}
	// Last 128 bits: brightness versus the global mean (16 rows x 8 cells).
	// This distinguishes uniformly dark pages from uniformly light ones,
	// which gradients alone cannot.
	sum, n := 0, 0
	for gy := 0; gy < GridH; gy++ {
		for gx := 0; gx < GridW; gx++ {
			sum += grid[gy][gx]
			n++
		}
	}
	mean := sum / n
	for gy := 0; gy < GridH; gy++ {
		for gx := 0; gx < 8; gx++ {
			if grid[gy][gx*2] > mean {
				h[bit/64] |= 1 << uint(bit%64)
			}
			bit++
		}
	}
	return h
}

// Distance returns the Hamming distance between two hashes (0..256).
func Distance(a, b Hash) int {
	d := 0
	for i := 0; i < 4; i++ {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// DefaultSimilarityThreshold is the distance below which two pages are
// considered the same design; the paper uses 20 for CAPTCHA verification.
const DefaultSimilarityThreshold = 20

// Similar reports whether two hashes are within the default threshold.
func Similar(a, b Hash) bool {
	return Distance(a, b) <= DefaultSimilarityThreshold
}

// Cluster groups items by hash similarity using single-linkage greedy
// assignment: each item joins the first cluster whose exemplar is within
// threshold, otherwise it starts a new cluster. Returns the cluster index of
// each input. This is how first-page screenshots are grouped into phishing
// campaigns.
func Cluster(hashes []Hash, threshold int) []int {
	assign := make([]int, len(hashes))
	var exemplars []Hash
	for i, h := range hashes {
		found := -1
		for ci, ex := range exemplars {
			if Distance(h, ex) <= threshold {
				found = ci
				break
			}
		}
		if found < 0 {
			found = len(exemplars)
			exemplars = append(exemplars, h)
		}
		assign[i] = found
	}
	return assign
}

// NearCount returns how many of the exemplars are within threshold of h,
// implementing the >= 3 exemplar rule for visual-CAPTCHA verification.
func NearCount(h Hash, exemplars []Hash, threshold int) int {
	n := 0
	for _, ex := range exemplars {
		if Distance(h, ex) <= threshold {
			n++
		}
	}
	return n
}
