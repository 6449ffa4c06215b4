package vision

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestSkippableMargin pins the margin: a bound one unit of rounding below
// the threshold is still scored, and one well below it is skipped. Thresholds
// below minBoundThreshold, and NaN bounds or thresholds, never skip.
func TestSkippableMargin(t *testing.T) {
	for _, threshold := range []float64{0.5, 0.3, 0.9, 1e-12, minBoundThreshold} {
		if skippable(math.Nextafter(threshold, 0), threshold) {
			t.Errorf("threshold %g: a bound one ulp below it is skipped", threshold)
		}
		if skippable(threshold*(1-boundMargin/2), threshold) {
			t.Errorf("threshold %g: a bound inside the margin is skipped", threshold)
		}
		if !skippable(threshold*(1-2*boundMargin), threshold) {
			t.Errorf("threshold %g: a bound twice the margin below it is scored", threshold)
		}
		if skippable(math.NaN(), threshold) {
			t.Errorf("threshold %g: a NaN bound is skipped", threshold)
		}
	}
	if skippable(0, minBoundThreshold/2) || skippable(0, math.NaN()) {
		t.Error("a threshold below minBoundThreshold or NaN skips a box")
	}
}

// CheckboxFeature is the index of the checkbox score in a feature vector.
const CheckboxFeature = checkboxFeature

// CheckBound checks the checkbox bound on one feature vector f, whose
// checkbox score it ignores, by scoring f with the checkbox score at each
// probe: 0, 1, each class's mean clamped to [0, 1], and the neighbours of
// each of those inside [0, 1]. Every class's scoreRange must be the least
// and greatest probe score. For every class set Detect and DetectClass
// bound (all, each class name, one absent name), a skipped box must score
// as nothing emitted of the set at every probe, and mayEmit must equal the
// bound rebuilt from the probe scores: the greatest foreground maximum over
// the least background minimum and its floor. It returns the first
// violation, or nil, and the number of class sets the bound skipped.
func CheckBound(d *Detector, f []float64) (skipped int, err error) {
	threshold := d.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	g := slices.Clone(f)
	probes := []float64{0, 1}
	for _, cs := range d.Classes {
		probes = append(probes, min(max(cs.Mean[checkboxFeature], 0), 1))
	}
	for _, v := range probes[:len(probes):len(probes)] {
		probes = append(probes, math.Nextafter(v, 0), math.Nextafter(v, 1))
	}
	least := make([]float64, len(d.Classes))
	most := make([]float64, len(d.Classes))
	nan := make([]bool, len(d.Classes))
	for i := range d.Classes {
		least[i], most[i] = math.Inf(1), math.Inf(-1)
		for _, v := range probes {
			g[checkboxFeature] = v
			s := d.Classes[i].score(g)
			nan[i] = nan[i] || math.IsNaN(s)
			least[i], most[i] = min(least[i], s), max(most[i], s)
		}
		lo, hi := d.Classes[i].scoreRange(f)
		if nan[i] != math.IsNaN(hi) || math.IsNaN(hi) != math.IsNaN(lo) {
			return skipped, fmt.Errorf("class %s: scoreRange = %g, %g; a probe score NaN = %v", d.Classes[i].Name, lo, hi, nan[i])
		}
		if !nan[i] && (!near(lo, least[i]) || !near(hi, most[i])) {
			return skipped, fmt.Errorf("class %s: scoreRange = %g, %g, want the probe scores' range %g, %g",
				d.Classes[i].Name, lo, hi, least[i], most[i])
		}
	}
	type scored struct {
		class string
		conf  float64
	}
	var atProbe []scored
	for _, v := range probes {
		g[checkboxFeature] = v
		class, conf := d.scoreFeatures(g)
		atProbe = append(atProbe, scored{class, conf})
	}
	sets := []string{"all"}
	wants := []func(string) bool{func(string) bool { return true }}
	for _, name := range append(classNames(d), "no-such-class") {
		sets = append(sets, name)
		wants = append(wants, func(c string) bool { return c == name })
	}
	for k, want := range wants {
		set := sets[k]
		emit := d.mayEmit(f, want, threshold)
		best, bg, anyNaN := 0.0, 1e-12, false
		for i, cs := range d.Classes {
			switch {
			case cs.Name == ClassBackground:
				bg = max(bg, least[i])
			case want(cs.Name):
				best = max(best, most[i])
			default:
				continue
			}
			anyNaN = anyNaN || nan[i]
		}
		cut := threshold * (1 - boundMargin)
		switch ref := best / (best + bg); {
		case anyNaN && !emit:
			return skipped, fmt.Errorf("set %s: a box with a NaN probe score is skipped", set)
		case anyNaN:
		case threshold >= minBoundThreshold && ref < cut*(1-1e-10) && emit:
			return skipped, fmt.Errorf("set %s: bound %g is below %g but the box is scored", set, ref, cut)
		case ref > cut*(1+1e-10) && !emit:
			return skipped, fmt.Errorf("set %s: bound %g is above %g but the box is skipped", set, ref, cut)
		}
		if emit {
			continue
		}
		skipped++
		for j, p := range atProbe {
			if p.class != ClassBackground && want(p.class) && !(p.conf < threshold) {
				return skipped, fmt.Errorf("set %s: skipped box scores %s %g at checkbox score %g", set, p.class, p.conf, probes[j])
			}
		}
	}
	return skipped, nil
}

// near reports whether two scores agree to the rounding the bound's
// reordered sum allows, or are both below the normal floats.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b))+1e-300
}

func classNames(d *Detector) []string {
	var names []string
	for _, cs := range d.Classes {
		names = append(names, cs.Name)
	}
	return names
}
