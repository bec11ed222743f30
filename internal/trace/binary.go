package trace

import (
	"fmt"
	"time"

	"stopss/internal/message"
)

// Binary span codec for the overlay's compact framing. Broker, kind,
// link and subscriber names recur heavily across a link's lifetime and
// go through the interning dictionary; Seq does not (varint), and the
// start time is encoded as its RFC 3339 text form — the same rendering
// encoding/json uses — so a span that crossed the overlay renders in
// GET /api/v1/trace exactly as it would have at its origin (an
// integer-nanoseconds encoding would lose the original location
// rendering).

// AppendSpans encodes spans onto w.
func AppendSpans(w *message.BWriter, spans []Span) {
	w.Uvarint(uint64(len(spans)))
	for _, s := range spans {
		w.String(s.Broker)
		w.Uvarint(s.Seq)
		w.String(s.Kind)
		ts, err := s.Start.MarshalText()
		if err != nil {
			// Out-of-range year; encode the zero time rather than
			// corrupting the stream (matches encoding/json, which
			// errors the whole frame — a drop either way).
			ts, _ = time.Time{}.MarshalText()
		}
		w.Uvarint(uint64(len(ts)))
		w.Buf = append(w.Buf, ts...)
		w.Varint(s.Dur)
		w.String(s.Link)
		w.String(s.Sub)
		w.Uvarint(s.SubID)
		w.RawString(s.Err)
	}
}

// ReadSpans decodes a span list encoded by AppendSpans.
func ReadSpans(r *message.BReader) ([]Span, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(r.Len()) { // each span costs well over one byte
		return nil, fmt.Errorf("trace: binary decode: span count %d exceeds input", n)
	}
	spans := make([]Span, 0, n)
	for i := uint64(0); i < n; i++ {
		var s Span
		if s.Broker, err = r.String(); err != nil {
			return nil, err
		}
		if s.Seq, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if s.Kind, err = r.String(); err != nil {
			return nil, err
		}
		ts, err := r.RawString()
		if err != nil {
			return nil, err
		}
		if err := s.Start.UnmarshalText([]byte(ts)); err != nil {
			return nil, fmt.Errorf("trace: binary decode: bad span timestamp: %w", err)
		}
		if s.Dur, err = r.Varint(); err != nil {
			return nil, err
		}
		if s.Link, err = r.String(); err != nil {
			return nil, err
		}
		if s.Sub, err = r.String(); err != nil {
			return nil, err
		}
		if s.SubID, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if s.Err, err = r.RawString(); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}
