package vision

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/raster"
)

// Well-known detector class names beyond the CAPTCHA kinds.
const (
	ClassButton     = "button"
	ClassLogo       = "logo"
	ClassBackground = "background"
)

// Annotation is a ground-truth object in a training or evaluation page.
type Annotation struct {
	Class string
	Box   raster.Rect
}

// Example is one annotated page.
type Example struct {
	Image       *raster.Image
	Annotations []Annotation
}

// Detection is one detector output.
type Detection struct {
	Class string
	Score float64
	Box   raster.Rect
}

// classStats holds fitted per-class feature statistics.
type classStats struct {
	Name  string    `json:"name"`
	Mean  []float64 `json:"mean"`
	Std   []float64 `json:"std"`
	Count int       `json:"count"`
}

// Detector is the trained object detector.
type Detector struct {
	Classes []classStats `json:"classes"`
	// Threshold is the minimum foreground-vs-background confidence for a
	// detection to be emitted. Default 0.5.
	Threshold float64 `json:"threshold"`
}

// ErrNoTraining is returned when Train receives no annotations.
var ErrNoTraining = errors.New("vision: no training annotations")

// Train fits per-class feature statistics on the annotated examples and
// samples background regions as the negative class. It is the counterpart of
// the paper's Faster R-CNN fine-tuning run (BASE_LR 0.001, MAX_ITER 3000);
// here "training" is moment estimation, deterministic given the seed used
// for background sampling.
func Train(examples []Example, seed int64) (*Detector, error) {
	return train(examples, seed, Features)
}

// train is Train with the feature extractor as a parameter.
func train(examples []Example, seed int64, features func(*raster.Image, raster.Rect) []float64) (*Detector, error) {
	type acc struct {
		sum, sumSq []float64
		n          int
	}
	accs := map[string]*acc{}
	observe := func(class string, f []float64) {
		a := accs[class]
		if a == nil {
			a = &acc{sum: make([]float64, FeatureDim), sumSq: make([]float64, FeatureDim)}
			accs[class] = a
		}
		for i, v := range f {
			a.sum[i] += v
			a.sumSq[i] += v * v
		}
		a.n++
	}
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, ex := range examples {
		for _, an := range ex.Annotations {
			observe(an.Class, features(ex.Image, an.Box))
			total++
		}
		// Background negatives: random crops that do not overlap any
		// annotation by more than 20% IoU.
		for tries, got := 0, 0; tries < 40 && got < 3; tries++ {
			w := 20 + rng.Intn(160)
			h := 12 + rng.Intn(60)
			if ex.Image.W <= w || ex.Image.H <= h {
				continue
			}
			box := raster.R(rng.Intn(ex.Image.W-w), rng.Intn(ex.Image.H-h), w, h)
			overlaps := false
			for _, an := range ex.Annotations {
				if box.IoU(an.Box) > 0.2 {
					overlaps = true
					break
				}
			}
			if overlaps {
				continue
			}
			observe(ClassBackground, features(ex.Image, box))
			got++
		}
	}
	if total == 0 {
		return nil, ErrNoTraining
	}
	d := &Detector{Threshold: 0.5}
	for name, a := range accs {
		cs := classStats{Name: name, Count: a.n,
			Mean: make([]float64, FeatureDim), Std: make([]float64, FeatureDim)}
		for i := 0; i < FeatureDim; i++ {
			mean := a.sum[i] / float64(a.n)
			variance := a.sumSq[i]/float64(a.n) - mean*mean
			if variance < 0 {
				variance = 0
			}
			cs.Mean[i] = mean
			cs.Std[i] = math.Sqrt(variance)
			if cs.Std[i] < 0.05 {
				cs.Std[i] = 0.05 // floor keeps scoring well-conditioned
			}
		}
		d.Classes = append(d.Classes, cs)
	}
	// Deterministic class order.
	for i := 0; i < len(d.Classes); i++ {
		for j := i + 1; j < len(d.Classes); j++ {
			if d.Classes[j].Name < d.Classes[i].Name {
				d.Classes[i], d.Classes[j] = d.Classes[j], d.Classes[i]
			}
		}
	}
	return d, nil
}

// classScore returns a similarity in (0, 1]: exp of the negative mean
// squared z-distance from the class centroid.
func (cs *classStats) score(f []float64) float64 {
	d2 := 0.0
	for i, v := range f {
		z := (v - cs.Mean[i]) / cs.Std[i]
		d2 += z * z
	}
	d2 /= float64(len(f))
	return math.Exp(-0.5 * d2)
}

// scoreFeatures classifies one feature vector, returning the best
// non-background class and a confidence that compares it against the
// background class.
func (d *Detector) scoreFeatures(f []float64) (string, float64) {
	bestClass, bestScore := ClassBackground, 0.0
	bgScore := 1e-12
	for i := range d.Classes {
		s := d.Classes[i].score(f)
		if d.Classes[i].Name == ClassBackground {
			bgScore = math.Max(s, bgScore)
			continue
		}
		if s > bestScore {
			bestClass, bestScore = d.Classes[i].Name, s
		}
	}
	conf := bestScore / (bestScore + bgScore)
	return bestClass, conf
}

// scoreRange returns the least and the greatest score cs can give a box
// whose features other than the checkbox score are f, over every checkbox
// score in [0, 1]; f[checkboxFeature] is not read. The checkbox term z² is
// least at the mean clamped to [0, 1] and greatest at the end of [0, 1]
// farther from the mean, and each step of score rounds monotonically, so
// these two terms bound the term score computes. Both results are NaN when
// some checkbox score gives a NaN score (a hand-built class with Std 0 or a
// NaN mean): a NaN can only arise at the clamped mean if it arises at all.
func (cs *classStats) scoreRange(f []float64) (lo, hi float64) {
	known := 0.0
	for i, v := range f {
		if i != checkboxFeature {
			z := (v - cs.Mean[i]) / cs.Std[i]
			known += z * z
		}
	}
	mean, std := cs.Mean[checkboxFeature], cs.Std[checkboxFeature]
	at := func(v float64) float64 {
		z := (v - mean) / std
		d2 := (known + z*z) / float64(len(f))
		return math.Exp(-0.5 * d2)
	}
	far := 0.0
	if mean < 0.5 {
		far = 1
	}
	if hi = at(min(max(mean, 0), 1)); math.IsNaN(hi) {
		return hi, hi
	}
	return at(far), hi
}

// boundMargin is how far below the threshold, relative to it, a confidence
// bound must lie for Detect to skip a box. The bound and scoreFeatures add
// the same 28 terms in different orders; each sum lies within 27 units of
// rounding (u = 2⁻⁵³) of the true one, relative to it, so the two scores
// differ relatively by at most about 27u·d2, and the confidence b/(b+g)
// doubles that and adds a few units. A box can only be emitted when its
// foreground score b is at least threshold·1e-12 (b ≥ threshold·g and
// g ≥ 1e-12), so d2 ≤ 2·ln(1e12/threshold): 57 at the default 0.5, and
// 1345 at minBoundThreshold, where b ≥ 1e-292 is still a normal float and
// subnormal rounding cannot occur. The confidences then differ relatively
// by at most about 1e-11, far inside the margin. Below minBoundThreshold
// no box is skipped.
const (
	boundMargin       = 1e-9
	minBoundThreshold = 1e-280
)

// skippable reports whether a box whose confidence is at most ub can be
// left unscored because it cannot reach threshold.
func skippable(ub, threshold float64) bool {
	return threshold >= minBoundThreshold && ub < threshold*(1-boundMargin)
}

// mayEmit reports whether a box whose features other than the checkbox
// score are f could be emitted as a class want accepts, for some checkbox
// score in [0, 1]. It bounds scoreFeatures: the best foreground score is at
// most the greatest hi of the accepted classes (ignoring the others only
// loosens the bound), and the background score at least the greatest lo of
// the background classes and its 1e-12 floor. A NaN bound never skips.
func (d *Detector) mayEmit(f []float64, want func(string) bool, threshold float64) bool {
	best, bg := 0.0, 1e-12
	for i := range d.Classes {
		cs := &d.Classes[i]
		if cs.Name != ClassBackground && !want(cs.Name) {
			continue
		}
		lo, hi := cs.scoreRange(f)
		if math.IsNaN(hi) {
			return true
		}
		if cs.Name == ClassBackground {
			bg = math.Max(bg, lo)
		} else {
			best = math.Max(best, hi)
		}
	}
	return !skippable(best/(best+bg), threshold)
}

// Detect runs proposal generation, region classification, and per-class
// non-max suppression over a page screenshot. Each proposal's features read
// its tight box's pixels in one pass. The checkbox search, which needs a
// summed-area table over the box's left third, runs only on a box that some
// checkbox score in [0, 1] could make a detection; the rest are dropped
// unsearched, and every box kept is scored exactly.
func (d *Detector) Detect(img *raster.Image) []Detection {
	return d.detect(img, anyClass)
}

// anyClass accepts every class.
func anyClass(string) bool { return true }

// DetectClass returns only detections of the given class: the detections
// of Detect of that class, in the same order. Its bound counts only that
// foreground class, so it searches fewer boxes than Detect.
func (d *Detector) DetectClass(img *raster.Image, class string) []Detection {
	return OfClass(d.detect(img, func(name string) bool { return name == class }), class)
}

// OfClass returns the detections of dets of the given class, in order:
// OfClass(Detect(img), class) is DetectClass(img, class).
func OfClass(dets []Detection, class string) []Detection {
	var out []Detection
	for _, det := range dets {
		if det.Class == class {
			out = append(out, det)
		}
	}
	return out
}

// detect is Detect keeping only the boxes scored as a class want accepts.
// NonMaxSuppression is per class and sorts stably, so dropping another
// class's boxes neither reorders nor suppresses the wanted ones, except
// past a NaN confidence, which its sort moves nothing across: those are
// kept whatever their class, and the caller filters after suppression.
func (d *Detector) detect(img *raster.Image, want func(string) bool) []Detection {
	s := scratchPool.Get().(*propScratch)
	defer scratchPool.Put(s)
	comps := s.components(img)
	s.order = proposalOrder(s.order[:0], comps, img.W*img.H)
	return d.emit(img, comps, s.order, want)
}

// emit scores the unscored components order names, in order, and returns
// the non-max-suppressed detections of those emitted as a class want
// accepts (or with a NaN confidence).
func (d *Detector) emit(img *raster.Image, comps []scanComp, order []int32, want func(string) bool) []Detection {
	threshold := d.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	var dets []Detection
	var f []float64
	for _, i := range order {
		c := &comps[i]
		if c.state == unscored {
			if f == nil {
				f = make([]float64, FeatureDim)
			}
			d.score(c, img, f, want, threshold)
		}
		if c.state == emitted && (want(c.class) || math.IsNaN(c.conf)) {
			dets = append(dets, Detection{Class: c.class, Score: c.conf, Box: c.box})
		}
	}
	return NonMaxSuppression(dets, 0.3)
}

// score classifies c's content box: emitted with its class and confidence
// when the box is a detection, dropped when it is background, below the
// threshold, or skipped because no checkbox score could make it a class
// want accepts.
func (d *Detector) score(c *scanComp, img *raster.Image, f []float64, want func(string) bool, threshold float64) {
	r := countFeaturesInto(f, img, c.box)
	if !d.mayEmit(f, want, threshold) {
		c.state = dropped
		return
	}
	f[checkboxFeature] = checkboxScore(img, r)
	class, conf := d.scoreFeatures(f)
	if class == ClassBackground || conf < threshold {
		c.state = dropped
		return
	}
	c.state, c.class, c.conf = emitted, class, conf
}

// Marshal serializes the detector.
func (d *Detector) Marshal() ([]byte, error) { return json.Marshal(d) }

// UnmarshalDetector loads a detector produced by Marshal.
func UnmarshalDetector(data []byte) (*Detector, error) {
	var d Detector
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("vision: %w", err)
	}
	if len(d.Classes) == 0 {
		return nil, errors.New("vision: empty detector")
	}
	return &d, nil
}
