package pfv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// AppendJSON appends v's stable wire encoding {"id":..,"mean":[..],"sigma":[..]},
// the bytes json.Marshal writes for it. A non-finite mean or sigma (only a
// Vector built without New can hold one) is an error, as it is to
// encoding/json.
func AppendJSON(b []byte, v Vector) ([]byte, error) {
	b = strconv.AppendUint(append(b, `{"id":`...), v.ID, 10)
	b, err := AppendJSONArray(append(b, `,"mean":`...), v.Mean, AppendJSONFloat)
	if err == nil {
		b, err = AppendJSONArray(append(b, `,"sigma":`...), v.Sigma, AppendJSONFloat)
	}
	return append(b, '}'), err
}

// MarshalJSON encodes the vector as {"id":..,"mean":[..],"sigma":[..]}.
func (v Vector) MarshalJSON() ([]byte, error) { return AppendJSON(nil, v) }

// jsonVector is what encoding/json decodes a vector the scanner declines
// into.
type jsonVector struct {
	ID    uint64    `json:"id"`
	Mean  []float64 `json:"mean"`
	Sigma []float64 `json:"sigma"`
}

// UnmarshalJSON decodes and validates a vector; invalid input (mismatched
// lengths, non-finite means, non-positive sigmas) is rejected with the same
// errors New reports, so a decoded Vector upholds every pfv invariant. A key
// other than id, mean and sigma is refused, as a strict decoder refuses one
// at the top level of a message.
func (v *Vector) UnmarshalJSON(data []byte) error {
	s := NewJSONScanner(data)
	dec := s.Vector()
	if !s.End() {
		var jv jsonVector
		if err := DecodeJSON(data, &jv, true); err != nil {
			return fmt.Errorf("pfv: decoding vector: %w", err)
		}
		var err error
		if dec, err = New(jv.ID, jv.Mean, jv.Sigma); err != nil {
			return err
		}
	}
	*v = dec
	return nil
}

// DecodeJSON decodes the first JSON value of data into dst as a json.Decoder
// does. strict adds DisallowUnknownFields and refuses anything but white
// space after the value.
func DecodeJSON(data []byte, dst any, strict bool) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(dst); err != nil || !strict {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// AppendJSONArray appends xs as encoding/json writes a slice, null when it
// is nil, each element by elem.
func AppendJSONArray[T any](b []byte, xs []T, elem func([]byte, T) ([]byte, error)) ([]byte, error) {
	if xs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = elem(b, x); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// AppendJSONFloat appends f as encoding/json writes a float64: the shortest
// round-trip digits, in exponent form below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped. ±Inf and NaN are an error.
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// AppendJSONString appends s as encoding/json writes a string, HTML escaping
// included: printable ASCII other than `"`, `\`, <, > and & as is, any other
// string through encoding/json.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// JSONScanner reads the canonical form of a JSON document, the form
// encoding/json writes, in one pass: known lowercase keys in any order, each
// once, any white space, strings without escapes or non-ASCII bytes, numbers
// that Go's parsers take for their field. On anything else it stops, and
// End reports the document as not its own; the caller then decodes the same
// bytes with encoding/json, which decides every input the scanner declines.
// Every method is a no-op once the scan has failed.
type JSONScanner struct {
	b   []byte
	i   int
	bad bool
}

// NewJSONScanner starts a scan of data.
func NewJSONScanner(data []byte) *JSONScanner { return &JSONScanner{b: data} }

// End reports whether the document was canonical and nothing but white
// space follows the value read.
func (s *JSONScanner) End() bool {
	s.peek()
	return !s.bad && s.i == len(s.b)
}

// peek skips white space and returns the next byte, 0 at the end or after a
// failure.
func (s *JSONScanner) peek() byte {
	for ; s.i < len(s.b) && !s.bad; s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// accept consumes c if it comes next.
func (s *JSONScanner) accept(c byte) bool { return s.peek() == c && s.skip(c) }

func (s *JSONScanner) must(c byte) { s.bad = s.bad || !s.accept(c) }

// skip consumes c if it is the very next byte.
func (s *JSONScanner) skip(c byte) bool {
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// Literal consumes lit if it comes next, byte for byte.
func (s *JSONScanner) Literal(lit string) bool {
	ok := s.peek() == lit[0] && string(s.b[s.i:min(len(s.b), s.i+len(lit))]) == lit
	if ok {
		s.i += len(lit)
	}
	return ok
}

// raw reads a string and returns its bytes, which alias the document.
func (s *JSONScanner) raw() []byte {
	s.must('"')
	for j := s.i; j < len(s.b) && !s.bad; j++ {
		if c := s.b[j]; c == '"' {
			str := s.b[s.i:j]
			s.i = j + 1
			return str
		} else if c < 0x20 || c >= 0x80 || c == '\\' {
			break
		}
	}
	s.bad = true
	return nil
}

// String reads a string.
func (s *JSONScanner) String() string { return string(s.raw()) }

// Object reads an object, calling field with each key; field reads the
// value and reports whether it knew the key.
func (s *JSONScanner) Object(field func(key []byte) bool) {
	var seen [8][]byte
	if s.must('{'); s.accept('}') {
		return
	}
	for n := 0; !s.bad; n++ {
		k := s.raw()
		for _, prev := range seen[:min(n, len(seen))] {
			s.bad = s.bad || bytes.Equal(prev, k)
		}
		if s.must(':'); s.bad || n == len(seen) || !field(k) {
			s.bad = true
			return
		}
		if seen[n] = k; !s.accept(',') {
			s.must('}')
			return
		}
	}
}

// Array reads an array, calling elem to read each element.
func (s *JSONScanner) Array(elem func()) {
	if s.must('['); s.accept(']') {
		return
	}
	for elem(); s.accept(','); {
		elem()
	}
	s.must(']')
}

// number reads a number by RFC 8259's grammar, nothing looser.
func (s *JSONScanner) number() []byte {
	s.peek()
	start := s.i
	digits := func() bool {
		j := s.i
		for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
			s.i++
		}
		return s.i > j
	}
	s.skip('-')
	ok := s.skip('0') || digits()
	if s.skip('.') {
		ok = digits() && ok
	}
	if s.skip('e') || s.skip('E') {
		_ = s.skip('+') || s.skip('-')
		ok = digits() && ok
	}
	s.bad = s.bad || !ok
	return s.b[start:s.i]
}

// Float reads a float64 as encoding/json does.
func (s *JSONScanner) Float() float64 {
	f, err := strconv.ParseFloat(string(s.number()), 64)
	s.bad = s.bad || err != nil
	return f
}

// Uint reads a uint64 as encoding/json does.
func (s *JSONScanner) Uint() uint64 {
	n, err := strconv.ParseUint(string(s.number()), 10, 64)
	s.bad = s.bad || err != nil
	return n
}

// Int reads an integer of bits bits as encoding/json does.
func (s *JSONScanner) Int(bits int) int64 {
	n, err := strconv.ParseInt(string(s.number()), 10, bits)
	s.bad = s.bad || err != nil
	return n
}

// Bool reads true or false.
func (s *JSONScanner) Bool() bool {
	t := s.Literal("true")
	s.bad = s.bad || !t && !s.Literal("false")
	return t
}

// floats reads an array of numbers into a slice of its length.
func (s *JSONScanner) floats() []float64 {
	var fs []float64
	if s.peek() == '[' {
		end := max(bytes.IndexByte(s.b[s.i:], ']'), 0)
		fs = make([]float64, 0, 1+bytes.Count(s.b[s.i:s.i+end], []byte{','}))
	}
	s.Array(func() { fs = append(fs, s.Float()) })
	return fs
}

// Vector reads a vector; one New refuses fails the scan, so that
// encoding/json reports it.
func (s *JSONScanner) Vector() Vector {
	var id uint64
	var mean, sigma []float64
	s.Object(func(key []byte) bool {
		switch string(key) {
		case "id":
			id = s.Uint()
		case "mean":
			mean = s.floats()
		case "sigma":
			sigma = s.floats()
		default:
			return false
		}
		return true
	})
	v, err := New(id, mean, sigma)
	s.bad = s.bad || err != nil
	return v
}
