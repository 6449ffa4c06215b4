package sessionio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// unquote returns the value of a JSON string token, quotes included, as
// encoding/json reads it (escapes resolved, invalid UTF-8 replaced), and
// whether encoding/json accepts the token.
func unquote(token []byte) (string, bool) {
	var s string
	err := json.Unmarshal(token, &s)
	return s, err == nil
}

// SeedURL returns a session payload's SeedURL without decoding the whole
// log, for the journal's replay of its completed URLs: it walks the
// top-level keys and stops at the first one that encoding/json would bind
// to SeedURL (keys match with strings.EqualFold once unquoted). Anything
// else, including a payload that is not an object or a SeedURL that is
// not a string encoding/json accepts, reads as "". Keys and strings that
// are their own value are read in place; only the others go through
// json.Unmarshal. It does not validate what it skips, and never panics.
func SeedURL(payload []byte) string {
	s := scanner{b: payload}
	if !s.next('{') {
		return ""
	}
	for {
		key, plain, ok := s.quoted()
		if !ok {
			return ""
		}
		seed := isSeedURL(s.token(key), plain)
		if !s.next(':') {
			return ""
		}
		if seed {
			url, plain, ok := s.quoted()
			switch {
			case !ok:
				return "" // null, or not a string
			case plain:
				return string(url)
			}
			v, _ := unquote(s.token(url)) // on error v is ""
			return v
		}
		if !s.skipValue() || !s.next(',') {
			return ""
		}
	}
}

// isSeedURL reports whether a key's string token binds to SeedURL; plain
// says whether the bytes between its quotes are its value.
func isSeedURL(token []byte, plain bool) bool {
	if plain {
		return bytes.EqualFold(token[1:len(token)-1], []byte("SeedURL"))
	}
	key, _ := unquote(token) // on error key is "", which binds to nothing
	return strings.EqualFold(key, "SeedURL")
}

// skipValue consumes one value after any whitespace: a string, an object
// or array to its matching close, or a scalar to the next delimiter.
func (s *scanner) skipValue() bool {
	s.space()
	depth := 0
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			if _, _, ok := s.quoted(); !ok || depth == 0 {
				return ok
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return true // the end of a scalar
			}
			if depth--; depth == 0 {
				s.i++
				return true
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return true
			}
		}
		s.i++
	}
	return false
}

// scanner is the byte-level walk under the session decoder and SeedURL:
// whitespace, delimiters and string spans. It never panics on any input.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c after any whitespace.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// quoted consumes a string after any whitespace and returns the bytes
// between its quotes, and whether they are its value: no escape, no
// control byte and valid UTF-8. A backslash always skips the byte after
// it, so an escaped quote never ends the string.
func (s *scanner) quoted() (raw []byte, plain, ok bool) {
	if !s.next('"') {
		return nil, false, false
	}
	start, ascii := s.i, true
	plain = true
	for i := start; i < len(s.b); i++ {
		if i += plainRun(s.b[i:]); i == len(s.b) {
			break
		}
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			raw = s.b[start:i]
			if plain && !ascii {
				plain = utf8.Valid(raw)
			}
			return raw, plain, true
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			plain = false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, false
}

// token returns the string token, quotes included, that quoted has just
// consumed and returned raw for.
func (s *scanner) token(raw []byte) []byte {
	return s.b[s.i-len(raw)-2 : s.i]
}

// plainRun returns how many bytes at the start of b a string scan may
// skip: printable ASCII other than '"' and '\\'. It tests 8 bytes at a
// time, so it stops up to 7 bytes short of a run that reaches the end of
// b.
func plainRun(b []byte) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	n := 0
	for ; n+8 <= len(b); n += 8 {
		w := binary.LittleEndian.Uint64(b[n:])
		q, bs := w^(ones*'"'), w^(ones*'\\')
		// The high bit of a byte >= 0x80, < 0x20, '"' or '\\'. Borrows
		// can flag bytes above the first such byte, never below it.
		if m := (w | (w-ones*0x20)&^w | (q-ones)&^q | (bs-ones)&^bs) & highs; m != 0 {
			return n + bits.TrailingZeros64(m)/8
		}
	}
	return n
}
