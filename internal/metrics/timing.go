package metrics

import "fmt"

// Stage identifies one instrumented phase of a crawl session. The four
// stages cover the crawler's hot path: rendering a page, reading labels
// with OCR, running the object detector, and driving the submit ladder.
type Stage int

const (
	StageRender Stage = iota
	StageOCR
	StageDetect
	StageSubmit
	numStages
)

var stageNames = [numStages]string{"render", "ocr", "detect", "submit"}

// String returns the stage's name as printed in timing tables.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// StageByName maps a stage name (as emitted in trace spans and timing
// tables) back to its Stage. It reports false for unknown names, so trace
// consumers can skip span kinds they do not chart.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}
