package sessionio

import (
	"encoding/base64"
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/fieldspec"
	"repro/internal/phash"
	"repro/internal/raster"
	"repro/internal/script"
	"repro/internal/trace"
	"repro/internal/vision"
	"repro/internal/visualphish"
)

// unmarshal is json.Unmarshal(data, lg) for a zero lg: the same log, or
// the same error. A payload in the grammar the crawler writes decodes in
// one pass (decodeFast); any other is decoded again by encoding/json into
// a zero log, so hostile or hand-edited input keeps its exact semantics
// and error text.
func unmarshal(data []byte, lg *crawler.SessionLog) error {
	if decodeFast(data, lg) {
		return nil
	}
	*lg = crawler.SessionLog{}
	return json.Unmarshal(data, lg)
}

// decodeFast decodes data into the zero lg in one pass, with one case per
// field of the types a session log is made of, and reports whether the
// payload was in its grammar. That grammar is a subset of JSON on which
// encoding/json provably decodes the same log: every key is one of the
// struct's exact wire names, unescaped and at most once per object; every
// value has its field's JSON type, and null only where a slice (nil) or
// the Cloak pointer takes it; a phash.Hash or histogram array has exactly
// its length; nothing follows the object but whitespace. Strings with an
// escape or a non-ASCII byte are unquoted by encoding/json itself, numbers
// go through strconv as encoding/json parses them, a Time through its
// UnmarshalJSON and a Thumb through base64.StdEncoding. On false, lg holds
// a partial decode.
func decodeFast(data []byte, lg *crawler.SessionLog) bool {
	d := decoder{scanner: scanner{b: data}}
	d.session(lg)
	d.space()
	return !d.bad && d.i == len(d.b)
}

// Wire names, in declaration order, of the structs in a session log; a
// key's index is its bit in object.seen.
var (
	sessionKeys = []string{"SiteID", "SeedURL", "Brand", "Category", "CampaignID", "Pages", "NetLog", "Outcome", "Error", "Attempts", "FeedIndex", "Trace", "FirstPageEmbedding", "TriageScore", "TriageCampaign", "TriageSimilarity", "Cloak"}
	pageKeys    = []string{"Index", "URL", "Host", "Status", "Title", "Text", "DOMHash", "PHash", "Fields", "UsedOCR", "SubmitMethod", "DataAttempts", "Listeners", "ScriptSrcs", "Detections", "DetectionHashes"}
	fieldKeys   = []string{"Description", "HTMLType", "Label", "Confidence", "UsedOCR", "Value", "Box"}
	rectKeys    = []string{"X", "Y", "W", "H"}
	listenKeys  = []string{"target", "event", "action", "endpoint"}
	detectKeys  = []string{"Class", "Score", "Box"}
	netKeys     = []string{"Method", "URL", "Status", "CarriedData", "Kind", "Time", "Vary", "JSChallenge"}
	spanKeys    = []string{"kind", "name", "parent", "start", "end"}
	embedKeys   = []string{"Thumb", "Hist", "PHash"}
	cloakKeys   = []string{"Attempts", "Uncloaked"}
	attemptKeys = []string{"Profile", "Outcome", "Signals"}
)

func (d *decoder) session(lg *crawler.SessionLog) {
	var o object
	for d.field(&o, sessionKeys) {
		switch o.key {
		case "SiteID":
			lg.SiteID = d.str()
		case "SeedURL":
			lg.SeedURL = d.str()
		case "Brand":
			lg.Brand = d.str()
		case "Category":
			lg.Category = d.str()
		case "CampaignID":
			lg.CampaignID = d.str()
		case "Pages":
			lg.Pages = slice(d, d.page)
		case "NetLog":
			lg.NetLog = slice(d, d.netRequest)
		case "Outcome":
			lg.Outcome = d.str()
		case "Error":
			lg.Error = d.str()
		case "Attempts":
			lg.Attempts = d.int()
		case "FeedIndex":
			lg.FeedIndex = d.int()
		case "Trace":
			lg.Trace = slice(d, d.traceSpan)
		case "FirstPageEmbedding":
			d.embedding(&lg.FirstPageEmbedding)
		case "TriageScore":
			lg.TriageScore = d.float()
		case "TriageCampaign":
			lg.TriageCampaign = d.str()
		case "TriageSimilarity":
			lg.TriageSimilarity = d.float()
		case "Cloak":
			if !d.null() {
				lg.Cloak = new(crawler.CloakLog)
				d.cloak(lg.Cloak)
			}
		default:
			d.bad = true
		}
	}
}

func (d *decoder) page(p *crawler.PageLog) {
	var o object
	for d.field(&o, pageKeys) {
		switch o.key {
		case "Index":
			p.Index = d.int()
		case "URL":
			p.URL = d.str()
		case "Host":
			p.Host = d.str()
		case "Status":
			p.Status = d.int()
		case "Title":
			p.Title = d.str()
		case "Text":
			p.Text = d.str()
		case "DOMHash":
			p.DOMHash = d.str()
		case "PHash":
			d.hash(&p.PHash)
		case "Fields":
			p.Fields = slice(d, d.fieldLog)
		case "UsedOCR":
			p.UsedOCR = d.bool()
		case "SubmitMethod":
			p.SubmitMethod = d.str()
		case "DataAttempts":
			p.DataAttempts = d.int()
		case "Listeners":
			p.Listeners = slice(d, d.listener)
		case "ScriptSrcs":
			p.ScriptSrcs = slice(d, d.strInto)
		case "Detections":
			p.Detections = slice(d, d.detection)
		case "DetectionHashes":
			p.DetectionHashes = slice(d, d.hash)
		default:
			d.bad = true
		}
	}
}

func (d *decoder) fieldLog(f *crawler.FieldLog) {
	var o object
	for d.field(&o, fieldKeys) {
		switch o.key {
		case "Description":
			f.Description = d.str()
		case "HTMLType":
			f.HTMLType = d.str()
		case "Label":
			f.Label = fieldspec.Type(d.str())
		case "Confidence":
			f.Confidence = d.float()
		case "UsedOCR":
			f.UsedOCR = d.bool()
		case "Value":
			f.Value = d.str()
		case "Box":
			d.rect(&f.Box)
		default:
			d.bad = true
		}
	}
}

func (d *decoder) rect(r *raster.Rect) {
	var o object
	for d.field(&o, rectKeys) {
		switch o.key {
		case "X":
			r.X = d.int()
		case "Y":
			r.Y = d.int()
		case "W":
			r.W = d.int()
		case "H":
			r.H = d.int()
		default:
			d.bad = true
		}
	}
}

func (d *decoder) hash(h *phash.Hash) {
	fixed(d, h[:], d.uint)
}

func (d *decoder) listener(l *script.Listener) {
	var o object
	for d.field(&o, listenKeys) {
		switch o.key {
		case "target":
			l.Target = d.str()
		case "event":
			l.Event = d.str()
		case "action":
			l.Action = d.str()
		case "endpoint":
			l.Endpoint = d.str()
		default:
			d.bad = true
		}
	}
}

func (d *decoder) detection(v *vision.Detection) {
	var o object
	for d.field(&o, detectKeys) {
		switch o.key {
		case "Class":
			v.Class = d.str()
		case "Score":
			v.Score = d.float()
		case "Box":
			d.rect(&v.Box)
		default:
			d.bad = true
		}
	}
}

func (d *decoder) netRequest(r *browser.NetRequest) {
	var o object
	for d.field(&o, netKeys) {
		switch o.key {
		case "Method":
			r.Method = d.str()
		case "URL":
			r.URL = d.str()
		case "Status":
			r.Status = d.int()
		case "CarriedData":
			r.CarriedData = slice(d, d.strInto)
		case "Kind":
			r.Kind = d.str()
		case "Time":
			d.time(&r.Time)
		case "Vary":
			r.Vary = d.str()
		case "JSChallenge":
			r.JSChallenge = d.str()
		default:
			d.bad = true
		}
	}
}

func (d *decoder) traceSpan(s *trace.Span) {
	var o object
	for d.field(&o, spanKeys) {
		switch o.key {
		case "kind":
			s.Kind = trace.Kind(d.str())
		case "name":
			s.Name = d.str()
		case "parent":
			s.Parent = d.int()
		case "start":
			s.Start = time.Duration(d.intBits(64))
		case "end":
			s.End = time.Duration(d.intBits(64))
		default:
			d.bad = true
		}
	}
}

func (d *decoder) embedding(e *visualphish.Embedding) {
	var o object
	for d.field(&o, embedKeys) {
		switch o.key {
		case "Thumb":
			e.Thumb = d.thumb()
		case "Hist":
			fixed(d, e.Hist[:], d.float)
		case "PHash":
			d.hash(&e.PHash)
		default:
			d.bad = true
		}
	}
}

func (d *decoder) cloak(c *crawler.CloakLog) {
	var o object
	for d.field(&o, cloakKeys) {
		switch o.key {
		case "Attempts":
			c.Attempts = slice(d, d.attempt)
		case "Uncloaked":
			c.Uncloaked = d.bool()
		default:
			d.bad = true
		}
	}
}

func (d *decoder) attempt(a *crawler.CloakAttempt) {
	var o object
	for d.field(&o, attemptKeys) {
		switch o.key {
		case "Profile":
			a.Profile = d.str()
		case "Outcome":
			a.Outcome = d.str()
		case "Signals":
			a.Signals = slice(d, d.strInto)
		default:
			d.bad = true
		}
	}
}

// decoder is the state of one decodeFast pass. Once bad is set, every
// object and array walk ends, so the pass stops within a few steps.
type decoder struct {
	scanner
	bad bool
}

// object is the state of one object walk: whether its '{' was read, the
// keys seen so far (bit i for names[i]), and the current key.
type object struct {
	open bool
	seen uint64
	next int // the index in names of the key expected next
	key  string
}

// field advances o to the object's next key, reading the '{' first, and
// consumes the ':' after it; the key is in o.key, its value is next. It
// reports false at the object's end and once d is bad, which it becomes
// on anything outside the grammar, such as a key seen before in the
// object.
func (d *decoder) field(o *object, names []string) bool {
	if d.bad {
		return false
	}
	if !o.open {
		if !d.next('{') {
			d.bad = true
			return false
		}
		o.open = true
		if d.next('}') {
			return false
		}
	} else if !d.next(',') {
		d.bad = !d.next('}')
		return false
	}
	at, ok := d.key(names, o.next)
	if !ok || o.seen&(1<<at) != 0 || !d.next(':') {
		d.bad = true
		return false
	}
	o.seen |= 1 << at
	o.next, o.key = at+1, names[at]
	return true
}

// key consumes an object key and returns its index in names. It tries
// names[from] first, as keys come in declaration order, and reports false
// for a key that is escaped or not in names.
func (d *decoder) key(names []string, from int) (int, bool) {
	d.space()
	if from < len(names) {
		name := names[from]
		end := d.i + 1 + len(name)
		if end < len(d.b) && d.b[d.i] == '"' && d.b[end] == '"' && string(d.b[d.i+1:end]) == name {
			d.i = end + 1
			return from, true
		}
	}
	raw, plain, ok := d.quoted()
	if ok && plain {
		for at, name := range names {
			if name == string(raw) {
				return at, true
			}
		}
	}
	return 0, false
}

// elem advances an array walk, reading the '[' first when *open is false,
// to the start of its next element. It reports false at the array's end
// and once d is bad.
func (d *decoder) elem(open *bool) bool {
	if d.bad {
		return false
	}
	if !*open {
		if !d.next('[') {
			d.bad = true
			return false
		}
		*open = true
		return !d.next(']')
	}
	if d.next(',') {
		return true
	}
	d.bad = !d.next(']')
	return false
}

// slice decodes an array into a new slice, each element by each, as
// encoding/json does into a nil slice: null is nil and [] an empty
// slice that is not nil.
func slice[T any](d *decoder, each func(*T)) []T {
	if d.null() {
		return nil
	}
	out := []T{}
	for open := false; d.elem(&open); {
		var zero T
		out = append(out, zero)
		each(&out[len(out)-1])
	}
	return out
}

// fixed decodes an array of exactly len(dst) elements into dst. Any other
// length is outside the grammar: encoding/json would zero the tail of a
// short array and drop the excess of a long one.
func fixed[T any](d *decoder, dst []T, each func() T) {
	n := 0
	for open := false; d.elem(&open); n++ {
		if n == len(dst) {
			d.bad = true
			return
		}
		dst[n] = each()
	}
	if n != len(dst) {
		d.bad = true
	}
}

// null consumes a null after any whitespace, if one is next.
func (d *decoder) null() bool {
	return d.literal("null")
}

func (d *decoder) literal(lit string) bool {
	d.space()
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func (d *decoder) bool() bool {
	switch {
	case d.literal("true"):
		return true
	case !d.literal("false"):
		d.bad = true
	}
	return false
}

// str decodes a string: the bytes between its quotes when those are its
// value, else what encoding/json unquotes from the token.
func (d *decoder) str() string {
	raw, plain, ok := d.quoted()
	switch {
	case !ok:
		d.bad = true
		return ""
	case plain:
		return string(raw)
	}
	s, ok := unquote(d.token(raw))
	d.bad = d.bad || !ok
	return s
}

func (d *decoder) strInto(s *string) {
	*s = d.str()
}

// time decodes a Time through its UnmarshalJSON, as encoding/json does,
// from a string token that needs no unquoting.
func (d *decoder) time(t *time.Time) {
	raw, plain, ok := d.quoted()
	if !ok || !plain || t.UnmarshalJSON(d.token(raw)) != nil {
		d.bad = true
	}
}

// thumb decodes a []raster.Color, which encoding/json writes as base64:
// null is nil, "" an empty slice that is not nil.
func (d *decoder) thumb() []raster.Color {
	if d.null() {
		return nil
	}
	raw, plain, ok := d.quoted()
	if !ok {
		d.bad = true
		return nil
	}
	if !plain {
		s, ok := unquote(d.token(raw))
		if !ok {
			d.bad = true
			return nil
		}
		raw = []byte(s)
	}
	buf := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(buf, raw)
	if err != nil {
		d.bad = true
		return nil
	}
	out := make([]raster.Color, n)
	for i, c := range buf[:n] {
		out[i] = raster.Color(c)
	}
	return out
}

// number consumes a JSON number after any whitespace and returns its
// bytes; anything else makes d bad.
func (d *decoder) number() []byte {
	d.space()
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.bad = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.bad = true
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.bad = true
			return nil
		}
	}
	num := b[d.i:i]
	d.i = i
	return num
}

func (d *decoder) int() int {
	return int(d.intBits(strconv.IntSize))
}

// intBits decodes an integer that fits in bits bits.
func (d *decoder) intBits(bits int) int64 {
	num := d.number()
	n, err := strconv.ParseInt(string(num), 10, bits)
	d.bad = d.bad || err != nil
	return n
}

func (d *decoder) uint() uint64 {
	num := d.number()
	n, err := strconv.ParseUint(string(num), 10, 64)
	d.bad = d.bad || err != nil
	return n
}

func (d *decoder) float() float64 {
	num := d.number()
	f, err := strconv.ParseFloat(string(num), 64)
	d.bad = d.bad || err != nil
	return f
}
