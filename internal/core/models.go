package core

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/captcha"
	"repro/internal/fielddata"
	"repro/internal/pagegen"
	"repro/internal/phash"
	"repro/internal/termclass"
	"repro/internal/textclass"
	"repro/internal/vision"
	"repro/internal/visualphish"
)

// ModelParams is the complete training input: two pipelines with equal
// params train byte-identical models, which is what makes the bundle
// shareable and the process-wide cache sound.
type ModelParams struct {
	// Seed drives every training RNG stream (the same derivations
	// NewPipeline has always used: Seed, Seed+2/+3, Seed+4, Seed+5).
	Seed int64
	// DetectorTrainPages is the object detector's training-set size.
	DetectorTrainPages int
}

// Models is the trained, immutable model bundle a Pipeline crawls with: the
// input-field classifier, the visual object detector, the terminal-page
// classifier, the visual-CAPTCHA exemplar hashes, and the brand gallery.
// Training is the expensive part of pipeline construction; the bundle
// exists so it happens once per ModelParams and is then shared read-only
// across every pipeline, worker, resume run, and benchmark iteration that
// uses the same params. None of the fields may be mutated after TrainModels
// returns.
type Models struct {
	Params ModelParams

	FieldClassifier  *textclass.Model
	Detector         *vision.Detector
	TermClassifier   *termclass.Classifier
	Gallery          *visualphish.Gallery
	CaptchaExemplars []phash.Hash
}

// TrainModels trains the full bundle from scratch. The four training steps
// draw from independent seeded RNG streams and share no mutable state, so
// they run concurrently; outputs are bit-identical to training them one
// after another. Errors are checked in the original serial order so the
// reported failure doesn't depend on scheduling.
func TrainModels(params ModelParams) (*Models, error) {
	m := &Models{Params: params}
	var (
		wg                        sync.WaitGroup
		fieldErr, detErr, termErr error
	)
	wg.Add(4)
	go func() {
		defer wg.Done()
		m.FieldClassifier, fieldErr = fielddata.TrainMultilingual(params.Seed)
	}()
	go func() {
		defer wg.Done()
		tr := vision.NewTrainer(params.Seed + 3)
		pagegen.Each(params.DetectorTrainPages, params.Seed+2, pagegen.Config{}, tr.Observe)
		m.Detector, detErr = tr.Detector()
	}()
	go func() {
		defer wg.Done()
		m.TermClassifier, termErr = termclass.Train(params.Seed + 4)
	}()
	go func() {
		defer wg.Done()
		for _, kind := range captcha.VisualKinds() {
			for _, crop := range pagegen.CaptchaCrops(kind, 10, params.Seed+5) {
				m.CaptchaExemplars = append(m.CaptchaExemplars, phash.Compute(crop))
			}
		}
	}()
	m.Gallery = analysis.BrandGallery()
	wg.Wait()
	if fieldErr != nil {
		return nil, fmt.Errorf("core: training field classifier: %w", fieldErr)
	}
	if detErr != nil {
		return nil, fmt.Errorf("core: training detector: %w", detErr)
	}
	if termErr != nil {
		return nil, fmt.Errorf("core: training terminal classifier: %w", termErr)
	}
	return m, nil
}

// modelCache memoizes trained bundles per ModelParams for the life of the
// process. Entries are created under the map lock but trained outside it
// (sync.Once per entry), so two pipelines racing on the same params train
// once and one of them waits; pipelines with different params train
// concurrently. Training is deterministic, so a cached error is as
// permanent as a cached model. The cache never evicts: a bundle is a few
// megabytes and the set of distinct (seed, params) pairs a process uses is
// small — the 30-worker farm, a resume run, and the bench harness all hit
// the same entry.
var modelCache struct {
	sync.Mutex
	entries map[ModelParams]*modelEntry
}

type modelEntry struct {
	once   sync.Once
	models *Models
	err    error
}

// SharedModels returns the process-wide bundle for params, training it on
// first use. The returned bundle is shared: callers must treat it as
// immutable.
func SharedModels(params ModelParams) (*Models, error) {
	modelCache.Lock()
	if modelCache.entries == nil {
		modelCache.entries = map[ModelParams]*modelEntry{}
	}
	e := modelCache.entries[params]
	if e == nil {
		e = &modelEntry{}
		modelCache.entries[params] = e
	}
	modelCache.Unlock()
	e.once.Do(func() {
		e.models, e.err = TrainModels(params)
	})
	return e.models, e.err
}

// ResetModelCache drops every memoized bundle, forcing the next
// SharedModels call to retrain. It exists for cold-build benchmarks and
// memory-sensitive tests; production code never needs it.
func ResetModelCache() {
	modelCache.Lock()
	modelCache.entries = nil
	modelCache.Unlock()
}
