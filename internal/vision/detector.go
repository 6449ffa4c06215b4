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

// Detect runs proposal generation, region classification, and per-class
// non-max suppression over a page screenshot. Each proposal's features read
// its tight box's pixels in one pass, plus one summed-area table over the
// left third of a box large enough for the checkbox search.
func (d *Detector) Detect(img *raster.Image) []Detection {
	threshold := d.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	var dets []Detection
	f := make([]float64, FeatureDim)
	for _, box := range Proposals(img) {
		featuresInto(f, img, box)
		class, conf := d.scoreFeatures(f)
		if class == ClassBackground || conf < threshold {
			continue
		}
		dets = append(dets, Detection{Class: class, Score: conf, Box: box})
	}
	return NonMaxSuppression(dets, 0.3)
}

// DetectClass returns only detections of the given class.
func (d *Detector) DetectClass(img *raster.Image, class string) []Detection {
	var out []Detection
	for _, det := range d.Detect(img) {
		if det.Class == class {
			out = append(out, det)
		}
	}
	return out
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
