package message

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The wire representation used by the web application and the
// notification transports. Values are encoded as tagged objects so that
// the string "4" and the integer 4 survive a round trip distinctly.
//
// Encoding is done by hand (AppendJSON, AppendJSONString) on the
// notification hot path; the output is byte-identical to json.Marshal
// of the wire structs below, which decoding still uses.

type wireValue struct {
	Kind  string   `json:"kind"`
	Str   *string  `json:"str,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Bool  *bool    `json:"bool,omitempty"`
}

// AppendJSON appends v's JSON form to dst. A NaN or infinite float is
// an error, as it is for json.Marshal; dst is then returned unchanged.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"kind":`...)
	dst = AppendJSONString(dst, v.kind.String())
	switch v.kind {
	case KindString:
		dst = append(dst, `,"str":`...)
		dst = AppendJSONString(dst, v.str)
	case KindInt:
		dst = append(dst, `,"int":`...)
		dst = strconv.AppendInt(dst, v.num, 10)
	case KindFloat:
		if math.IsInf(v.flt, 0) || math.IsNaN(v.flt) {
			return dst[:start], fmt.Errorf("message: unsupported float value %v", v.flt)
		}
		dst = append(dst, `,"float":`...)
		dst = appendJSONFloat(dst, v.flt)
	case KindBool:
		dst = append(dst, `,"bool":`...)
		dst = strconv.AppendBool(dst, v.b)
	}
	return append(dst, '}'), nil
}

// appendJSONFloat formats a finite float the way encoding/json does:
// like %g, but switching to an exponent only below 1e-6 or from 1e21,
// with the exponent unpadded (e-9, not e-09).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// jsonSafe marks the ASCII bytes a JSON string carries unescaped:
// everything from space up except the quote, the backslash and the
// HTML-sensitive <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = true
	}
	for _, b := range `"\<>&` {
		safe[b] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s to dst as a JSON string literal, escaped
// exactly as json.Marshal escapes it: <, > and & as \u003c, \u003e and
// \u0026, control bytes with their short escape or \u00XX, each byte
// of invalid UTF-8 as \ufffd, and U+2028 and U+2029 as \u2028 and
// \u2029.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	b, err := v.AppendJSON(nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	var w wireValue
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("message: decoding value: %w", err)
	}
	switch w.Kind {
	case "none", "":
		*v = None()
	case "string":
		if w.Str == nil {
			return fmt.Errorf("message: string value missing payload")
		}
		*v = String(*w.Str)
	case "int":
		if w.Int == nil {
			return fmt.Errorf("message: int value missing payload")
		}
		*v = Int(*w.Int)
	case "float":
		if w.Float == nil {
			return fmt.Errorf("message: float value missing payload")
		}
		*v = Float(*w.Float)
	case "bool":
		if w.Bool == nil {
			return fmt.Errorf("message: bool value missing payload")
		}
		*v = Bool(*w.Bool)
	default:
		return fmt.Errorf("message: unknown value kind %q", w.Kind)
	}
	return nil
}

type wirePair struct {
	Attr string `json:"attr"`
	Val  Value  `json:"val"`
}

type wireEvent struct {
	Pairs []wirePair `json:"pairs"`
}

// AppendJSON appends e's JSON form, {"pairs":[{"attr":…,"val":…},…]},
// to dst. A non-finite float value is an error; dst is then returned
// unchanged.
func (e Event) AppendJSON(dst []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"pairs":[`...)
	for i, p := range e.pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"attr":`...)
		dst = AppendJSONString(dst, p.Attr)
		dst = append(dst, `,"val":`...)
		var err error
		if dst, err = p.Val.AppendJSON(dst); err != nil {
			return dst[:start], err
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	b, err := e.AppendJSON(nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(data []byte) error {
	var w wireEvent
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("message: decoding event: %w", err)
	}
	e.pairs = make([]Pair, len(w.Pairs))
	for i, p := range w.Pairs {
		e.pairs[i] = Pair{Attr: p.Attr, Val: p.Val}
	}
	return nil
}

type wirePredicate struct {
	Attr string `json:"attr"`
	Op   string `json:"op"`
	Val  Value  `json:"val,omitempty"`
	Hi   Value  `json:"hi,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (p Predicate) MarshalJSON() ([]byte, error) {
	return json.Marshal(wirePredicate{Attr: p.Attr, Op: p.Op.String(), Val: p.Val, Hi: p.Hi})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Predicate) UnmarshalJSON(data []byte) error {
	var w wirePredicate
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("message: decoding predicate: %w", err)
	}
	op := ParseOp(w.Op)
	if op == OpInvalid {
		return fmt.Errorf("message: unknown operator %q", w.Op)
	}
	*p = Predicate{Attr: w.Attr, Op: op, Val: w.Val, Hi: w.Hi}
	return nil
}

type wireSubscription struct {
	ID         SubID       `json:"id"`
	Subscriber string      `json:"subscriber,omitempty"`
	Preds      []Predicate `json:"preds"`
}

// MarshalJSON implements json.Marshaler.
func (s Subscription) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireSubscription{ID: s.ID, Subscriber: s.Subscriber, Preds: s.Preds})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Subscription) UnmarshalJSON(data []byte) error {
	var w wireSubscription
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("message: decoding subscription: %w", err)
	}
	*s = Subscription{ID: w.ID, Subscriber: w.Subscriber, Preds: w.Preds}
	return nil
}
