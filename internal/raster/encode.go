package raster

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
)

// The PXI ("pixel image") wire format is the stand-in for PNG in this
// system: phishing sites serve background images and logos as PXI resources,
// the browser decodes them, and the renderer composites them. The format is
// a 4-byte magic, width and height as uint32, then run-length-encoded
// palette indices (pairs of count byte, color byte).

var pxiMagic = [4]byte{'P', 'X', 'I', '1'}

// ErrBadImage is returned when decoding malformed PXI data.
var ErrBadImage = errors.New("raster: malformed PXI image data")

// Encode serializes im to the PXI format. Each run of equal pixels, cut
// every 255, is found a word at a time by RunEnd.
func Encode(im *Image) []byte {
	out := make([]byte, 0, 12+len(im.Pix)/4)
	out = append(out, pxiMagic[:]...)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(im.W))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(im.H))
	out = append(out, hdr[:]...)
	pix := im.Bytes()
	for i := 0; i < len(pix); {
		c := pix[i]
		j := RunEnd(pix[:min(len(pix), i+255)], i+1, c)
		out = append(out, byte(j-i), c)
		i = j
	}
	return out
}

// Decode parses PXI data back into an Image. A color byte outside the
// palette is malformed: every consumer of a screenshot indexes palette
// tables by pixel value. Each run covers at most 255 pixels, so a header
// declaring more pixels than the data could cover is refused before the
// image is allocated.
func Decode(data []byte) (*Image, error) {
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
	im := New(w, h, White)
	pos := 0
	for i := 12; i+1 < len(data); i += 2 {
		run := int(data[i])
		c := Color(data[i+1])
		if c >= NumColors {
			return nil, fmt.Errorf("%w: color %d outside the palette at offset %d", ErrBadImage, c, i+1)
		}
		if pos+run > len(im.Pix) {
			return nil, fmt.Errorf("%w: overflow at offset %d", ErrBadImage, i)
		}
		if c != White { // New zero-filled the image, and White is zero
			px := im.Pix[pos : pos+run]
			for j := range px {
				px[j] = c
			}
		}
		pos += run
	}
	if pos != len(im.Pix) {
		return nil, fmt.Errorf("%w: short pixel data (%d of %d)", ErrBadImage, pos, len(im.Pix))
	}
	return im, nil
}

// EncodeDataURI returns im as a data: URI suitable for embedding in an img
// src attribute, mirroring how phishing pages inline images.
func EncodeDataURI(im *Image) string {
	return "data:image/pxi;base64," + base64.StdEncoding.EncodeToString(Encode(im))
}

// DecodeDataURI parses a data: URI produced by EncodeDataURI.
func DecodeDataURI(uri string) (*Image, error) {
	const prefix = "data:image/pxi;base64,"
	if len(uri) < len(prefix) || uri[:len(prefix)] != prefix {
		return nil, ErrBadImage
	}
	raw, err := base64.StdEncoding.DecodeString(uri[len(prefix):])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	return Decode(raw)
}
