package resilience

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// encodeRecord is the journal encoder that marshals the record with its
// sequence number set, kept as the reference for encodeFrame's splice.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("resilience: encoding record %d: %w", rec.Seq, err)
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return nil, fmt.Errorf("resilience: record %d payload contains newline", rec.Seq)
	}
	out := make([]byte, 0, len(payload)+10)
	out = fmt.Appendf(out, "%08x ", crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	out = append(out, '\n')
	return out, nil
}

// randomRecord draws a record of the given kind with random field
// values, zeros (omitted fields) included.
func randomRecord(r *stats.RNG, kind RecordKind) Record {
	money := func() econ.Money {
		if r.Intn(4) == 0 {
			return 0
		}
		return econ.Money(r.Int63n(int64(econ.FromDollars(1000))))
	}
	values := func() []econ.Money {
		out := make([]econ.Money, r.Intn(9))
		for i := range out {
			out[i] = money()
		}
		return out
	}
	rec := Record{Kind: kind}
	switch kind {
	case KindServiceConfig, KindShardConfig:
		rec.Game = []string{"additive", "substitutive"}[r.Intn(2)]
		rec.Horizon = core.Slot(r.Intn(5000))
		for n := r.Intn(6); n > 0; n-- {
			rec.Opts = append(rec.Opts, OptCost{ID: core.OptID(r.Intn(100)), Cost: money()})
		}
		if kind == KindShardConfig {
			rec.Shard, rec.Shards = r.Intn(8), r.Intn(9)
		}
	case KindAdditiveBid, KindSubstBid:
		rec.User = core.UserID(r.Int63n(math.MaxInt64))
		if r.Intn(8) == 0 {
			rec.User = 0
		}
		if kind == KindAdditiveBid {
			rec.Opt = core.OptID(r.Intn(100))
		} else {
			for n := r.Intn(4); n > 0; n-- {
				rec.Set = append(rec.Set, core.OptID(r.Intn(100)))
			}
		}
		rec.Start = core.Slot(r.Intn(300))
		rec.End = rec.Start + core.Slot(r.Intn(10))
		rec.Values = values()
	}
	return rec
}

// encodeFrame must frame every record exactly as marshalling it with its
// sequence number set does, for every kind and across the whole range of
// sequence numbers.
func TestEncodeFrameMatchesMarshalFraming(t *testing.T) {
	kinds := []RecordKind{KindServiceConfig, KindShardConfig, KindAdditiveBid,
		KindSubstBid, KindAdvanceSlot, KindClosePeriod}
	r := stats.NewRNG(5151)
	for trial := 0; trial < 3000; trial++ {
		rec := randomRecord(r, kinds[trial%len(kinds)])
		seq := uint64(r.Int63n(1 << uint(1+r.Intn(62))))
		switch trial % 50 {
		case 0:
			seq = 1
		case 1:
			seq = math.MaxUint64
		}
		rec.Seq = 0
		got, err := encodeFrame(seq, rec.zeroSeqPayload())
		if err != nil {
			t.Fatal(err)
		}
		rec.Seq = seq
		want, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d, record %+v:\n got %q\nwant %q", seq, rec, got, want)
		}
	}
}

// A journal written through Append and through a service's
// single-marshal submit path holds the bytes the reference encoder
// frames, record by record.
func TestJournalBytesMatchReferenceEncoder(t *testing.T) {
	r := stats.NewRNG(5252)
	var m MemLog
	j := NewJournal(&m)
	var want []byte
	kinds := []RecordKind{KindShardConfig, KindAdditiveBid, KindSubstBid, KindAdvanceSlot, KindClosePeriod}
	for i := 0; i < 500; i++ {
		rec := randomRecord(r, kinds[r.Intn(len(kinds))])
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		rec.Seq = uint64(i + 1)
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
	}
	if !bytes.Equal(m.Bytes(), want) {
		t.Fatal("Append's journal differs from the reference encoder's")
	}

	var log MemLog
	js, err := NewJournaledService(sharedopt.Additive,
		[]sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}, 4, &log)
	if err != nil {
		t.Fatal(err)
	}
	bids := []core.OnlineBid{
		{User: 3, Start: 1, End: 2, Values: []econ.Money{econ.FromDollars(4), 0}},
		{User: 9, Start: 2, End: 4, Values: []econ.Money{econ.FromDollars(1), econ.FromDollars(2), econ.FromDollars(3)}},
	}
	for _, bid := range bids {
		if err := js.SubmitAdditiveBid(1, bid); err != nil {
			t.Fatal(err)
		}
		if err := js.SubmitAdditiveBid(1, bid); err != nil { // duplicate: not journaled
			t.Fatal(err)
		}
	}
	recs, _, torn := ReadJournal(log.Bytes())
	if torn || len(recs) != 1+len(bids) {
		t.Fatalf("journal holds %d records (torn=%v), want %d", len(recs), torn, 1+len(bids))
	}
	var again []byte
	for _, rec := range recs {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		again = append(again, frame...)
	}
	if !bytes.Equal(log.Bytes(), again) {
		t.Fatal("the service's journal differs from the reference encoder's")
	}
}
