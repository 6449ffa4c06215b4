package raster

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
)

// The PXI ("pixel image") wire format is the stand-in for PNG in this
// system: phishing sites serve background images and logos as PXI resources,
// the browser validates them into Runs, and the renderer paints the runs
// straight into the screenshot. No decoded pixel grid is kept between
// renders. The format is a 4-byte magic, width and height as big-endian
// uint32, then run-length-encoded palette indices: pairs of count byte and
// color byte, in row-major order, with runs free to cross rows and a
// trailing odd byte ignored.

var pxiMagic = [4]byte{'P', 'X', 'I', '1'}

// dataURIPrefix starts every PXI data: URI.
const dataURIPrefix = "data:image/pxi;base64,"

// ErrBadImage is returned when decoding malformed PXI data.
var ErrBadImage = errors.New("raster: malformed PXI image data")

// Encode serializes im to the PXI format. Each run of equal pixels, cut
// every 255, is found a word at a time by RunEnd. The stream is exactly as
// long as its capacity: a corpus keeps every image it encodes, so the runs
// are counted first and the stream allocated once at its length.
func Encode(im *Image) []byte {
	pix := im.Bytes()
	runs := 0
	for i := 0; i < len(pix); runs++ {
		i = RunEnd(pix[:min(len(pix), i+255)], i+1, pix[i])
	}
	out := make([]byte, 0, len(pxiMagic)+8+2*runs)
	out = append(out, pxiMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(im.W))
	out = binary.BigEndian.AppendUint32(out, uint32(im.H))
	for i := 0; i < len(pix); {
		c := pix[i]
		j := RunEnd(pix[:min(len(pix), i+255)], i+1, c)
		out = append(out, byte(j-i), c)
		i = j
	}
	return out
}

// Runs is a validated PXI image kept run-length: a W x H image whose
// pixels exist only as the runs it paints. Its data is never written.
type Runs struct {
	W, H int
	src  []byte // the whole PXI stream the runs were parsed from
	data []byte // the (count, color) pairs after the header
}

// Bytes returns the PXI stream the runs were parsed from, header and any
// trailing odd byte included. It aliases the parsed data and must not be
// modified.
func (r *Runs) Bytes() []byte { return r.src }

// ParseRuns validates PXI data and returns its runs without decoding a
// pixel. A color byte outside the palette is malformed: every consumer of
// a screenshot indexes palette tables by pixel value. Each run covers at
// most 255 pixels, so a header declaring more pixels than the data could
// cover is refused before the runs are walked. The runs must cover the
// image exactly. The result aliases data, which must not be modified
// afterwards.
func ParseRuns(data []byte) (*Runs, error) {
	if len(data) < 12 || [4]byte(data[0:4]) != pxiMagic {
		return nil, ErrBadImage
	}
	w := int(binary.BigEndian.Uint32(data[4:8]))
	h := int(binary.BigEndian.Uint32(data[8:12]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return nil, fmt.Errorf("%w: bad dimensions %dx%d", ErrBadImage, w, h)
	}
	if w*h > 255*((len(data)-12)/2) {
		return nil, fmt.Errorf("%w: short pixel data (%d bytes for %dx%d)", ErrBadImage, len(data)-12, w, h)
	}
	pairs := data[12 : 12+(len(data)-12)&^1]
	pos := 0
	for i := 0; i < len(pairs); i += 2 {
		if c := Color(pairs[i+1]); c >= NumColors {
			return nil, fmt.Errorf("%w: color %d outside the palette at offset %d", ErrBadImage, c, 12+i+1)
		}
		if pos += int(pairs[i]); pos > w*h {
			return nil, fmt.Errorf("%w: overflow at offset %d", ErrBadImage, 12+i)
		}
	}
	if pos != w*h {
		return nil, fmt.Errorf("%w: short pixel data (%d of %d)", ErrBadImage, pos, w*h)
	}
	return &Runs{W: w, H: h, src: data, data: pairs}, nil
}

// PaintAt paints the runs into dst with the image's top-left corner at
// (x, y), clipped to dst exactly as Blit clips: the result equals
// dst.Blit of the decoded image. White runs are written too. Each run is
// cut at row ends and at the clip window, and each piece is one fill.
func (r *Runs) PaintAt(dst *Image, x, y int) {
	win := R(x, y, r.W, r.H).Clip(dst.W, dst.H)
	if win.Empty() {
		return
	}
	// The window in the image's own coordinates.
	x0, x1 := win.X-x, win.X-x+win.W
	y0, y1 := win.Y-y, win.Y-y+win.H
	sx, sy := 0, 0 // the image pixel the next run starts at
	for i := 0; i < len(r.data); i += 2 {
		n, c := int(r.data[i]), Color(r.data[i+1])
		for n > 0 {
			seg := min(n, r.W-sx)
			if sy >= y0 {
				if a, b := max(sx, x0), min(sx+seg, x1); a < b {
					row := (sy+y)*dst.W + x
					fill(dst.Pix[row+a:row+b], c)
				}
			}
			n -= seg
			if sx += seg; sx == r.W {
				sx = 0
				if sy++; sy == y1 {
					return
				}
			}
		}
	}
}

// Decode parses PXI data into an Image: ParseRuns painted onto a fresh
// image.
func Decode(data []byte) (*Image, error) {
	return decoded(ParseRuns(data))
}

// decoded paints validated runs onto a fresh image.
func decoded(r *Runs, err error) (*Image, error) {
	if err != nil {
		return nil, err
	}
	im := New(r.W, r.H, White)
	r.PaintAt(im, 0, 0)
	return im, nil
}

// EncodeDataURI returns im as a data: URI suitable for embedding in an img
// src attribute, mirroring how phishing pages inline images.
func EncodeDataURI(im *Image) string {
	return dataURIPrefix + base64.StdEncoding.EncodeToString(Encode(im))
}

// ParseDataURI validates a data: URI produced by EncodeDataURI into Runs.
func ParseDataURI(uri string) (*Runs, error) {
	if len(uri) < len(dataURIPrefix) || uri[:len(dataURIPrefix)] != dataURIPrefix {
		return nil, ErrBadImage
	}
	raw, err := base64.StdEncoding.DecodeString(uri[len(dataURIPrefix):])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	return ParseRuns(raw)
}

// DecodeDataURI parses a data: URI produced by EncodeDataURI into an Image.
func DecodeDataURI(uri string) (*Image, error) {
	return decoded(ParseDataURI(uri))
}
