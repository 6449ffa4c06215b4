package vision_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/browser"
	"repro/internal/faker"
	"repro/internal/fieldspec"
	"repro/internal/raster"
	"repro/internal/site"
	"repro/internal/sitegen"
	"repro/internal/vision"
)

// corpusTransport serves every page and image of a corpus at its site's
// host and path, and answers anything else (keylogger beacons) with an
// empty 200.
type corpusTransport map[string]*site.Site

func (t corpusTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if s := t[req.URL.Host]; s != nil {
		if p := s.PageAt(req.URL.Path); p != nil {
			body = []byte(p.HTML)
		} else if data, ok := s.Images[req.URL.Path]; ok {
			body = data
		}
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: req,
		Body: io.NopCloser(bytes.NewReader(body))}, nil
}

// typedPage is one data page of a corpus: the scan of its screenshot as
// served, and its screenshot and value holes after typing forged data.
type typedPage struct {
	scan    *vision.Scan
	shot    *raster.Image
	holes   []raster.Rect
	sameKey bool // typing left the page's ScanKey unchanged
}

// typedPages loads every page of the corpusPages(sites, seed) set that has
// a visible input, detects on it with det, and types a faker value into
// each input (each input its own field type, in fieldspec order), ticking
// every checkbox, as a crawler's data attempt does.
func typedPages(t testing.TB, det *vision.Detector, sites int, seed int64) []typedPage {
	corpus := sitegen.Generate(sitegen.ScaledParams(sites, seed)).Sites
	tr := corpusTransport{}
	for _, s := range corpus {
		tr[s.Host] = s
	}
	types := fieldspec.All()
	fk := faker.New(seed)
	var out []typedPage
	for _, s := range corpus {
		for _, sp := range s.Pages {
			b := browser.New(browser.Options{Transport: tr})
			p, err := b.Navigate("http://" + s.Host + sp.Path)
			if err != nil {
				t.Fatal(err)
			}
			inputs := p.VisibleInputs()
			if len(inputs) == 0 {
				continue
			}
			_, scan := det.DetectScan(p.Screenshot())
			key, _ := p.ScanKey()
			for _, n := range p.Doc.ElementsByTag("input") {
				if strings.EqualFold(n.AttrOr("type", ""), "checkbox") {
					n.SetAttr("value", "on")
					n.SetAttr("checked", "checked")
				}
			}
			for i, n := range inputs {
				p.Type(n, fk.ForType(types[i%len(types)]))
			}
			typed, holes := p.ScanKey()
			out = append(out, typedPage{scan: scan, shot: p.Screenshot(), holes: holes, sameKey: typed == key})
		}
	}
	return out
}

// TestRescanTypedCorpus types forged data into every data page of the
// corpus and requires Rescan of the typed page, from the scan of the page
// as served, to equal Detect, and its buttons DetectClass, for the crawl's
// detector. Most pages' ScanKeys must survive the typing: their inputs are
// value holes.
func TestRescanTypedCorpus(t *testing.T) {
	det := crawlDetector(t)
	pages := typedPages(t, det, 60, 42)
	same, holes := 0, 0
	for i, p := range pages {
		got, want := det.Rescan(p.scan, p.shot, p.holes), det.Detect(p.shot)
		if !vision.SameDetections(got, want) {
			t.Fatalf("page %d, holes %v: Rescan = %+v, Detect = %+v", i, p.holes, got, want)
		}
		if g, w := vision.OfClass(got, vision.ClassButton), det.DetectClass(p.shot, vision.ClassButton); !vision.SameDetections(g, w) {
			t.Fatalf("page %d, holes %v: Rescan buttons = %+v, DetectClass = %+v", i, p.holes, g, w)
		}
		if p.sameKey {
			same++
		}
		holes += len(p.holes)
	}
	t.Logf("%d data pages, %d keep their ScanKey typed, %d value holes", len(pages), same, holes)
	if same*2 < len(pages) {
		t.Errorf("only %d of %d typed pages keep their ScanKey", same, len(pages))
	}
}

// BenchmarkTypedPageDetect times the visual submit strategy's detection on
// a typed data page of the corpusPages(60, 42) set: DetectClass(page,
// ClassButton), and Rescan from the scan of the page as served followed by
// the button filter. ns/op is per page.
func BenchmarkTypedPageDetect(b *testing.B) {
	det := crawlDetector(b)
	pages := typedPages(b, det, 60, 42)
	b.Run("DetectClass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pages[i%len(pages)]
			det.DetectClass(p.shot, vision.ClassButton)
		}
	})
	b.Run("Rescan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pages[i%len(pages)]
			vision.OfClass(det.Rescan(p.scan, p.shot, p.holes), vision.ClassButton)
		}
	})
}
