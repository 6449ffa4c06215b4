// Captcha reproduces the Table 5 experiment at a small scale: generate
// annotated web pages containing logos, buttons, and the eight CAPTCHA
// styles; fine-tune the object detector on them; and report per-class
// average precision on a held-out set — then detect a CAPTCHA on a fresh
// page and apply the verification heuristics of Section 5.3.2.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/captcha"
	"repro/internal/pagegen"
	"repro/internal/phash"
	"repro/internal/report"
	"repro/internal/vision"
)

func main() {
	fmt.Println("Training detector on 800 generated pages...")
	det, err := vision.Train(pagegen.GenerateSet(800, 1, pagegen.Config{}), 2)
	if err != nil {
		log.Fatal(err)
	}
	test := pagegen.GenerateSet(200, 3, pagegen.Config{})
	res := vision.Evaluate(det, test)
	fmt.Println(report.Table5(res))

	// Detect on one fresh page and verify visually.
	rng := rand.New(rand.NewSource(9))
	ex := pagegen.Generate(rng, pagegen.Config{CaptchaProb: 1})
	fmt.Println("Detections on a fresh page:")
	var exemplars []phash.Hash
	for _, kind := range captcha.VisualKinds() {
		for _, crop := range pagegen.CaptchaCrops(kind, 10, 4) {
			exemplars = append(exemplars, phash.Compute(crop))
		}
	}
	for _, d := range det.Detect(ex.Image) {
		line := fmt.Sprintf("  %-13s score %.2f at %v", d.Class, d.Score, d.Box)
		if k, ok := kindOf(d.Class); ok && k.IsVisual() {
			n := phash.NearCount(phash.ComputeRegion(ex.Image, d.Box), exemplars, phash.DefaultSimilarityThreshold)
			line += fmt.Sprintf(" — pHash matches %d training exemplars (>=3 verifies)", n)
		}
		fmt.Println(line)
	}
	fmt.Println("\nGround truth:")
	for _, an := range ex.Annotations {
		fmt.Printf("  %-13s at %v\n", an.Class, an.Box)
	}
}

func kindOf(class string) (captcha.Kind, bool) {
	for _, k := range captcha.AllKinds() {
		if k.String() == class {
			return k, true
		}
	}
	return 0, false
}
