package sitegen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/site"
)

// TestKitsMatchPerDeploymentBuild pins Generate's shared kits to the
// per-deployment build: a reference that builds every deployment's kit
// from scratch, as if no deployment shared anything, yields the same ID,
// host, pages, image bytes, truth and cloak for every site. It also checks
// that a campaign's deployments really share one kit.
func TestKitsMatchPerDeploymentBuild(t *testing.T) {
	for _, seed := range []int64{42, 1234} {
		p := Params{NumSites: 400, Seed: seed, MinCampaignSize: 20, CloakRate: 0.5}
		got := Generate(p).Sites
		var want []*site.Site
		for ci, spec := range planCampaigns(p) {
			for si := 0; si < spec.size; si++ {
				want = append(want, buildKit(spec, ci).deploy(si, len(want)))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d sites, reference has %d", seed, len(got), len(want))
		}
		cloaked := 0
		for i, g := range got {
			w := want[i]
			if g.ID != w.ID || g.Host != w.Host || g.Brand != w.Brand || g.Category != w.Category || g.CampaignID != w.CampaignID {
				t.Fatalf("seed %d site %d: identity %s %s %s differs from reference %s %s %s", seed, i, g.ID, g.Host, g.CampaignID, w.ID, w.Host, w.CampaignID)
			}
			if len(g.Pages) != len(w.Pages) {
				t.Fatalf("seed %d %s: %d pages, reference %d", seed, g.ID, len(g.Pages), len(w.Pages))
			}
			for j := range g.Pages {
				if !reflect.DeepEqual(*g.Pages[j], *w.Pages[j]) {
					t.Fatalf("seed %d %s page %d differs from reference:\n%+v\n%+v", seed, g.ID, j, *g.Pages[j], *w.Pages[j])
				}
			}
			if len(g.Images) != len(w.Images) {
				t.Fatalf("seed %d %s: %d images, reference %d", seed, g.ID, len(g.Images), len(w.Images))
			}
			for path, b := range w.Images {
				if !bytes.Equal(g.Images[path], b) {
					t.Fatalf("seed %d %s image %s differs from reference", seed, g.ID, path)
				}
			}
			if !reflect.DeepEqual(g.Truth, w.Truth) {
				t.Fatalf("seed %d %s truth differs:\n%+v\n%+v", seed, g.ID, g.Truth, w.Truth)
			}
			if !reflect.DeepEqual(g.Cloak, w.Cloak) {
				t.Fatalf("seed %d %s cloak differs:\n%+v\n%+v", seed, g.ID, g.Cloak, w.Cloak)
			}
			if g.Cloak != nil {
				cloaked++
			}
			if i > 0 && got[i-1].CampaignID == g.CampaignID && got[i-1].Pages[0] != g.Pages[0] {
				t.Fatalf("seed %d: %s and %s of %s do not share their kit", seed, got[i-1].ID, g.ID, g.CampaignID)
			}
		}
		if cloaked == 0 || cloaked == len(got) {
			t.Fatalf("seed %d: %d of %d sites cloaked; the pin needs both kinds", seed, cloaked, len(got))
		}
	}
}

// BenchmarkGenerate builds the clone-heavy 2,400-site corpus the
// clone-triage benchmark crawls: campaigns of at least 20 deployments, each
// campaign's kit built once.
func BenchmarkGenerate(b *testing.B) {
	p := Params{NumSites: 2400, Seed: 42, MinCampaignSize: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpusSink = Generate(p)
	}
}

var corpusSink *Corpus
