package notify

import (
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"stopss/internal/message"
)

// The reflective wire structs the notification path was encoded with
// before the hand-written appenders. json.Marshal of them is the oracle
// Notification.Encode, Event.MarshalJSON and Value.MarshalJSON must
// match byte for byte.

type oracleValue struct {
	Kind  string   `json:"kind"`
	Str   *string  `json:"str,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Bool  *bool    `json:"bool,omitempty"`
}

type oraclePair struct {
	Attr string      `json:"attr"`
	Val  oracleValue `json:"val"`
}

type oracleEvent struct {
	Pairs []oraclePair `json:"pairs"`
}

type oracleNotification struct {
	SubID      message.SubID `json:"sub_id"`
	Subscriber string        `json:"subscriber"`
	Event      oracleEvent   `json:"event"`
	Mode       string        `json:"mode,omitempty"`
	Seq        uint64        `json:"seq,omitempty"`
	JournalSeq uint64        `json:"journal_seq,omitempty"`
	PubID      string        `json:"pub_id,omitempty"`
}

func oracleOfValue(v message.Value) oracleValue {
	w := oracleValue{Kind: v.Kind().String()}
	switch v.Kind() {
	case message.KindString:
		s := v.Str()
		w.Str = &s
	case message.KindInt:
		n := v.IntVal()
		w.Int = &n
	case message.KindFloat:
		f := v.FloatVal()
		w.Float = &f
	case message.KindBool:
		b := v.BoolVal()
		w.Bool = &b
	}
	return w
}

func oracleOfEvent(e message.Event) oracleEvent {
	w := oracleEvent{Pairs: make([]oraclePair, e.Len())}
	for i, p := range e.Pairs() {
		w.Pairs[i] = oraclePair{Attr: p.Attr, Val: oracleOfValue(p.Val)}
	}
	return w
}

func oracleOf(n Notification) oracleNotification {
	return oracleNotification{SubID: n.SubID, Subscriber: n.Subscriber, Event: oracleOfEvent(n.Event),
		Mode: n.Mode, Seq: n.Seq, JournalSeq: n.JournalSeq, PubID: n.PubID}
}

// checkEncoding asserts that n, its event and each value encode exactly
// as the oracle does, and fail exactly when the oracle fails.
func checkEncoding(t *testing.T, n Notification) {
	t.Helper()
	same := func(what string, got []byte, gotErr error, oracle any) {
		t.Helper()
		want, wantErr := json.Marshal(oracle)
		if (gotErr != nil) != (wantErr != nil) || string(got) != string(want) {
			t.Errorf("%s:\n got %s (err %v)\nwant %s (err %v)", what, got, gotErr, want, wantErr)
		}
	}
	got, err := n.Encode()
	same("Notification.Encode", got, err, oracleOf(n))
	got, err = n.Event.MarshalJSON()
	same("Event.MarshalJSON", got, err, oracleOfEvent(n.Event))
	for _, p := range n.Event.Pairs() {
		got, err = p.Val.MarshalJSON()
		same("Value.MarshalJSON", got, err, oracleOfValue(p.Val))
	}
}

func TestEncodeMatchesReflectiveOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := map[string]Notification{
		"sample":       sampleNotification(42),
		"zero omitted": {},
		"empty event":  {SubID: 1, Subscriber: "s", Event: message.NewEvent()},
		"all fields": {SubID: math.MaxUint64, Subscriber: "acme", Event: message.E("school", "Toronto"),
			Mode: "syntactic", Seq: 7, JournalSeq: 9, PubID: "b1#6715f7dc/2"},
		"html": {Subscriber: "<a href='x'>&amp;</a>", Event: message.E("<attr>", "a&b>c"),
			Mode: "<", PubID: "&"},
		"control bytes":  {Subscriber: "tab\there\nnl\x00\x1f\x7f", Event: message.E("\b\f\r", "\"\\")},
		"invalid utf-8":  {Subscriber: "bad\xffbyte", Event: message.E("\xc3", "\xed\xa0\x80"), PubID: "\xfe"},
		"line separator": {Subscriber: "a\u2028b\u2029c", Event: message.E("x\u2028", "y\u2029")},
		"kinds": {Event: message.E("s", "str", "i", int64(-4), "f", 2.5, "b", true, "f0", false,
			"n", message.None())},
		"floats": {Event: message.E("tiny", 1e-7, "edge", 1e-6, "big", 1e21, "below", 9.99e20,
			"negzero", negZero, "three", 3.0, "max", math.MaxFloat64)},
		"nan":  {Event: message.E("f", math.NaN())},
		"+inf": {Event: message.E("ok", 1, "f", math.Inf(1))},
		"-inf": {Event: message.E("f", math.Inf(-1))},
	}
	for name, n := range cases {
		t.Run(name, func(t *testing.T) { checkEncoding(t, n) })
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if b, err := (Notification{Event: message.E("f", f)}).Encode(); err == nil || b != nil {
			t.Errorf("Encode with float %v = %s, %v; want an error", f, b, err)
		}
	}
}

func FuzzNotificationEncode(f *testing.F) {
	f.Add(uint64(42), "recruiter-1", "school", "Toronto", int64(1990), 4.5, true, "semantic", uint64(3), uint64(0), "b1#1/1")
	f.Add(uint64(0), "", "", "", int64(0), 0.0, false, "", uint64(0), uint64(0), "")
	f.Add(uint64(1), "<&>\u2028", "\xff", "\x00\n", int64(-1), 1e-7, false, "\u2029", uint64(1), uint64(2), "\xc3")
	f.Add(uint64(1), "s", "a", "b", int64(1), 1e21, true, "m", uint64(1), uint64(1), "p")
	f.Fuzz(func(t *testing.T, subID uint64, subscriber, attr, str string, i int64, fl float64, b bool,
		mode string, seq, journalSeq uint64, pubID string) {
		n := Notification{SubID: message.SubID(subID), Subscriber: subscriber,
			Event: message.E(attr, message.String(str), "int", message.Int(i), "float", message.Float(fl),
				"bool", message.Bool(b)),
			Mode: mode, Seq: seq, JournalSeq: journalSeq, PubID: pubID}
		checkEncoding(t, n)
		line, err := n.Encode()
		if err != nil {
			return // a non-finite float; checkEncoding saw the oracle fail too
		}
		back, err := DecodeNotification(line)
		if err != nil {
			t.Fatalf("decoding %s: %v", line, err)
		}
		// Invalid UTF-8 is encoded as U+FFFD, so only valid strings
		// survive the round trip unchanged.
		for _, s := range []string{subscriber, attr, str, mode, pubID} {
			if !utf8.ValidString(s) {
				return
			}
		}
		if back.SubID != n.SubID || back.Subscriber != n.Subscriber || back.Mode != n.Mode || back.Seq != n.Seq ||
			back.JournalSeq != n.JournalSeq || back.PubID != n.PubID || !back.Event.Equal(n.Event) {
			t.Fatalf("round trip changed the notification:\n got %+v\nwant %+v", back, n)
		}
		for k, p := range back.Event.Pairs() {
			if want := n.Event.Pairs()[k].Val.Kind(); p.Val.Kind() != want {
				t.Fatalf("round trip changed pair %d's kind to %v, want %v", k, p.Val.Kind(), want)
			}
		}
	})
}
