package message

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary wire codecs for the message types, used by the overlay's
// compact framing (internal/overlay). They exist BESIDE the JSON
// codecs in json.go: JSON remains the interoperable, self-describing
// form (web API, notification transports, snapshots, journal); the
// binary form is the hot-path encoding — varint lengths, one kind byte
// per value, and optional string interning so attribute names and
// recurring terms cost one or two bytes after first use.
//
// The two codecs are round-trip equivalent: decode(binary(encode(x)))
// and decode(json(encode(x))) produce identical values for every x
// either accepts (TestBinaryEventSubscriptionRoundTrip compares through
// the JSON form).

// internMax bounds an interning table: entries past the cap travel as
// literals forever. 4096 ids × short strings keeps a long-lived link's
// table under ~256 KiB while covering any realistic attribute/term
// vocabulary.
const internMax = 4096

// internMaxLen bounds the length of strings eligible for interning.
// Attribute names, ontology terms and broker names are short;
// arbitrary payload strings past this length are unlikely to repeat
// and would bloat the table.
const internMaxLen = 64

// Intern is a deterministic string-interning table shared by the two
// ends of one byte stream. The sender references previously seen
// strings by id; ids are assigned implicitly in stream order — every
// eligible literal is added by BOTH sides as it is encoded/decoded —
// so the tables converge without any negotiation beyond "interning is
// on". One Intern instance serves exactly one direction of one stream
// and is confined to that direction's encoder or decoder goroutine.
type Intern struct {
	ids  map[string]uint64 // encoder side: string → id
	strs []string          // decoder side (and rollback bookkeeping)
}

// NewIntern creates an empty interning table.
func NewIntern() *Intern {
	return &Intern{ids: make(map[string]uint64)}
}

// eligible reports whether s would be assigned an id when sent as a
// literal. The rule is pure — both stream ends agree on it.
func (in *Intern) eligible(s string) bool {
	return len(s) > 0 && len(s) <= internMaxLen && len(in.strs) < internMax
}

func (in *Intern) add(s string) {
	in.ids[s] = uint64(len(in.strs))
	in.strs = append(in.strs, s)
}

// Mark snapshots the table size so a speculative encode can be undone.
func (in *Intern) Mark() int { return len(in.strs) }

// Rollback removes every id assigned since the matching Mark. The
// overlay uses it when an encoded frame is dropped (oversized) before
// transmission: the peer never sees the literals, so the sender must
// forget the ids they would have claimed or the tables desynchronize.
func (in *Intern) Rollback(mark int) {
	for _, s := range in.strs[mark:] {
		delete(in.ids, s)
	}
	in.strs = in.strs[:mark]
}

// BWriter encodes message values into a reusable byte buffer. The zero
// value is usable (no interning); Buf is exported so callers can reuse
// the backing array across frames (Reset keeps capacity).
type BWriter struct {
	Buf  []byte
	Dict *Intern // optional; nil encodes every string as a literal
}

// Reset truncates the buffer, keeping its capacity.
func (w *BWriter) Reset() { w.Buf = w.Buf[:0] }

// Len reports the number of encoded bytes.
func (w *BWriter) Len() int { return len(w.Buf) }

// Byte appends one raw byte.
func (w *BWriter) Byte(b byte) { w.Buf = append(w.Buf, b) }

// Uvarint appends an unsigned varint.
func (w *BWriter) Uvarint(u uint64) { w.Buf = binary.AppendUvarint(w.Buf, u) }

// Varint appends a signed varint (zigzag).
func (w *BWriter) Varint(v int64) { w.Buf = binary.AppendVarint(w.Buf, v) }

// RawString appends a length-prefixed string, never interned. Use for
// strings that are unique by construction (publication IDs, error
// text): interning them would only churn the table.
func (w *BWriter) RawString(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// String appends a string through the interning dictionary: a
// back-reference when the string has been sent before on this stream,
// a literal (which claims the next id) otherwise. The literal/ref
// distinction rides the low bit of the leading varint: odd = id
// reference, even = 2×length literal.
func (w *BWriter) String(s string) {
	if w.Dict != nil {
		if id, ok := w.Dict.ids[s]; ok {
			w.Uvarint(2*id + 1)
			return
		}
		if w.Dict.eligible(s) {
			w.Dict.add(s)
		}
	}
	w.Uvarint(2 * uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Value appends one kind byte plus the kind's payload.
func (w *BWriter) Value(v Value) {
	w.Byte(byte(v.kind))
	switch v.kind {
	case KindString:
		w.String(v.str)
	case KindInt:
		w.Varint(v.num)
	case KindFloat:
		w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(v.flt))
	case KindBool:
		if v.b {
			w.Byte(1)
		} else {
			w.Byte(0)
		}
	}
}

// Event appends a pair count followed by interned-attribute/value
// pairs.
func (w *BWriter) Event(e Event) {
	w.Uvarint(uint64(len(e.pairs)))
	for _, p := range e.pairs {
		w.String(p.Attr)
		w.Value(p.Val)
	}
}

// Predicate appends attribute, operator and operand(s).
func (w *BWriter) Predicate(p Predicate) {
	w.String(p.Attr)
	w.Byte(byte(p.Op))
	w.Value(p.Val)
	if p.Op == OpBetween {
		w.Value(p.Hi)
	}
}

// Subscription appends id, subscriber and the predicate conjunction.
// The predicate count is shifted by one so a nil slice (0) stays
// distinguishable from an empty one (1): the JSON codec renders them
// differently ("preds":null vs "preds":[]), and the round-trip
// equivalence above requires the binary form not to collapse them.
func (w *BWriter) Subscription(s Subscription) {
	w.Uvarint(uint64(s.ID))
	w.String(s.Subscriber)
	if s.Preds == nil {
		w.Uvarint(0)
	} else {
		w.Uvarint(uint64(len(s.Preds)) + 1)
	}
	for _, p := range s.Preds {
		w.Predicate(p)
	}
}

// BReader decodes the BWriter encoding from a byte slice. Decoded
// strings are fresh copies, so the input buffer may be reused as soon
// as the decode returns.
type BReader struct {
	buf  []byte
	off  int
	Dict *Intern // must mirror the encoding side's (nil ⇔ nil)
}

// NewBReader wraps data for decoding with the given dictionary.
func NewBReader(data []byte, dict *Intern) *BReader {
	return &BReader{buf: data, Dict: dict}
}

// Len reports the number of undecoded bytes remaining.
func (r *BReader) Len() int { return len(r.buf) - r.off }

// Byte consumes one raw byte.
func (r *BReader) Byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("message: binary decode: unexpected end of input")
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// Uvarint consumes an unsigned varint.
func (r *BReader) Uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("message: binary decode: bad uvarint")
	}
	r.off += n
	return u, nil
}

// Varint consumes a signed (zigzag) varint.
func (r *BReader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("message: binary decode: bad varint")
	}
	r.off += n
	return v, nil
}

func (r *BReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)-r.off) {
		return nil, fmt.Errorf("message: binary decode: string length %d exceeds remaining %d", n, len(r.buf)-r.off)
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// RawString consumes a length-prefixed string.
func (r *BReader) RawString() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// String consumes an interned string: either a dictionary reference or
// a literal (which is added to the dictionary exactly as the encoder
// added it).
func (r *BReader) String() (string, error) {
	tag, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if tag&1 == 1 {
		id := tag >> 1
		if r.Dict == nil || id >= uint64(len(r.Dict.strs)) {
			return "", fmt.Errorf("message: binary decode: interned string id %d out of range", id)
		}
		return r.Dict.strs[id], nil
	}
	b, err := r.bytes(tag >> 1)
	if err != nil {
		return "", err
	}
	s := string(b)
	if r.Dict != nil && r.Dict.eligible(s) {
		r.Dict.add(s)
	}
	return s, nil
}

// Value consumes one encoded Value.
func (r *BReader) Value() (Value, error) {
	k, err := r.Byte()
	if err != nil {
		return Value{}, err
	}
	switch Kind(k) {
	case KindNone:
		return None(), nil
	case KindString:
		s, err := r.String()
		if err != nil {
			return Value{}, err
		}
		return String(s), nil
	case KindInt:
		n, err := r.Varint()
		if err != nil {
			return Value{}, err
		}
		return Int(n), nil
	case KindFloat:
		b, err := r.bytes(8)
		if err != nil {
			return Value{}, err
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case KindBool:
		b, err := r.Byte()
		if err != nil {
			return Value{}, err
		}
		return Bool(b != 0), nil
	default:
		return Value{}, fmt.Errorf("message: binary decode: unknown value kind %d", k)
	}
}

// Event consumes one encoded Event.
func (r *BReader) Event() (Event, error) {
	n, err := r.Uvarint()
	if err != nil {
		return Event{}, err
	}
	if n > uint64(r.Len()) { // each pair costs ≥2 bytes; cheap bound
		return Event{}, fmt.Errorf("message: binary decode: event pair count %d exceeds input", n)
	}
	e := Event{pairs: make([]Pair, 0, n)}
	for i := uint64(0); i < n; i++ {
		attr, err := r.String()
		if err != nil {
			return Event{}, err
		}
		v, err := r.Value()
		if err != nil {
			return Event{}, err
		}
		e.pairs = append(e.pairs, Pair{Attr: attr, Val: v})
	}
	return e, nil
}

// Predicate consumes one encoded Predicate.
func (r *BReader) Predicate() (Predicate, error) {
	attr, err := r.String()
	if err != nil {
		return Predicate{}, err
	}
	op, err := r.Byte()
	if err != nil {
		return Predicate{}, err
	}
	if opNames[Op(op)] == "" {
		return Predicate{}, fmt.Errorf("message: binary decode: unknown operator %d", op)
	}
	p := Predicate{Attr: attr, Op: Op(op)}
	if p.Val, err = r.Value(); err != nil {
		return Predicate{}, err
	}
	if p.Op == OpBetween {
		if p.Hi, err = r.Value(); err != nil {
			return Predicate{}, err
		}
	}
	return p, nil
}

// Subscription consumes one encoded Subscription.
func (r *BReader) Subscription() (Subscription, error) {
	id, err := r.Uvarint()
	if err != nil {
		return Subscription{}, err
	}
	subscriber, err := r.String()
	if err != nil {
		return Subscription{}, err
	}
	tag, err := r.Uvarint()
	if err != nil {
		return Subscription{}, err
	}
	s := Subscription{ID: SubID(id), Subscriber: subscriber}
	if tag == 0 {
		return s, nil // nil predicate slice
	}
	n := tag - 1
	if n > uint64(r.Len()) {
		return Subscription{}, fmt.Errorf("message: binary decode: predicate count %d exceeds input", n)
	}
	s.Preds = make([]Predicate, 0, n)
	for i := uint64(0); i < n; i++ {
		p, err := r.Predicate()
		if err != nil {
			return Subscription{}, err
		}
		s.Preds = append(s.Preds, p)
	}
	return s, nil
}
