package core

import (
	"runtime"
	"testing"

	"repro/internal/pagegen"
	"repro/internal/vision"
)

// TestSharedModelsMemoizes pins the tentpole behavior: two pipelines with
// equal (seed, detector-pages) params share one trained bundle, pointer for
// pointer — no retraining.
func TestSharedModelsMemoizes(t *testing.T) {
	ResetModelCache()
	a, err := SharedModels(ModelParams{Seed: 11, DetectorTrainPages: 60})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedModels(ModelParams{Seed: 11, DetectorTrainPages: 60})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same params returned distinct bundles: cache miss")
	}
	c, err := SharedModels(ModelParams{Seed: 12, DetectorTrainPages: 60})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed returned the same bundle")
	}
}

// TestTrainModelsDeterministic compares two COLD trainings byte for byte —
// the property the cache's soundness rests on. (The pipeline-level test in
// core_test.go now exercises the cached path, where equality is trivial.)
func TestTrainModelsDeterministic(t *testing.T) {
	params := ModelParams{Seed: 5, DetectorTrainPages: 80}
	a, err := TrainModels(params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainModels(params)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.Detector.Marshal()
	db, _ := b.Detector.Marshal()
	if string(da) != string(db) {
		t.Error("cold trainings produced different detectors")
	}
	fa, _ := a.FieldClassifier.Marshal()
	fb, _ := b.FieldClassifier.Marshal()
	if string(fa) != string(fb) {
		t.Error("cold trainings produced different field classifiers")
	}
	if len(a.CaptchaExemplars) == 0 || len(a.CaptchaExemplars) != len(b.CaptchaExemplars) {
		t.Fatalf("exemplar counts differ: %d vs %d", len(a.CaptchaExemplars), len(b.CaptchaExemplars))
	}
	for i := range a.CaptchaExemplars {
		if a.CaptchaExemplars[i] != b.CaptchaExemplars[i] {
			t.Fatal("cold trainings produced different captcha exemplars")
		}
	}
}

// TestNewPipelineSharesModels verifies NewPipeline rides the cache by
// default and honors explicit injection.
func TestNewPipelineSharesModels(t *testing.T) {
	ResetModelCache()
	opts := Options{NumSites: 20, Seed: 5, DetectorTrainPages: 80}
	p1, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Models != p2.Models {
		t.Error("repeated NewPipeline with equal params retrained models")
	}
	if p1.Detector != p1.Models.Detector || p1.FieldClassifier != p1.Models.FieldClassifier {
		t.Error("pipeline model fields do not alias the bundle")
	}

	private, err := TrainModels(ModelParams{Seed: 5, DetectorTrainPages: 80})
	if err != nil {
		t.Fatal(err)
	}
	opts.Models = private
	p3, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Models != private {
		t.Error("Options.Models injection ignored")
	}
}

// TestTrainModelsDetectorMatchesTrain pins TrainModels' streamed detector
// training (every page drawn into one reused screenshot) to vision.Train
// over the held page set it replaced, and bounds what the whole bundle's
// training allocates: 600 held 420x340 pages alone were 85 MB.
func TestTrainModelsDetectorMatchesTrain(t *testing.T) {
	const seed, pages = 7, 600
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := TrainModels(ModelParams{Seed: seed, DetectorTrainPages: pages})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	want, err := vision.Train(pagegen.GenerateSet(pages, seed+2, pagegen.Config{}), seed+3)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.Detector.Marshal()
	ref, _ := want.Marshal()
	if string(got) != string(ref) {
		t.Error("TrainModels' detector differs from vision.Train over GenerateSet")
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("TrainModels allocated %.1f MB", mb)
	if mb > 50 {
		t.Errorf("TrainModels allocated %.1f MB, want at most 50", mb)
	}
}
