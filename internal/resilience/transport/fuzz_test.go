package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"sharedopt/internal/econ"
	"sharedopt/internal/resilience"
)

// FuzzReadFrame hammers the wire decoder with arbitrary socket bytes,
// then hands any frame body to the server's request decoder. Whatever
// the bytes, the contract must hold: never panic; return a body only
// when the 4-byte length prefix is at most maxFrame and that many bytes
// followed it; and the header plus the returned body re-reads to the
// same body. A body that decodes as a request re-encodes to a frame
// that decodes to the same request.
func FuzzReadFrame(f *testing.F) {
	rec := &resilience.Record{Kind: resilience.KindAdditiveBid, User: 7, Opt: 1,
		Start: 1, End: 2, Values: []econ.Money{econ.FromCents(300), econ.FromCents(150)}}
	for _, req := range []request{
		{ID: 1, Op: opSubmit, Rec: rec, DeadlineUS: 5000},
		{ID: 2, Op: opAdv, Window: 3},
		{ID: 3, Op: opClose, Window: 4},
		{ID: 4, Op: opStats},
	} {
		frame, err := encodeFrame(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])                        // torn body
		f.Add(append(append([]byte(nil), frame...), 0, 0)) // trailing bytes
	}
	f.Add([]byte(nil))
	f.Add([]byte{0, 0})                             // torn header
	f.Add([]byte{0, 0, 0, 0})                       // empty body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'}) // hostile length
	f.Add([]byte{0, 0, 0, 2, '{', '}'})             // valid frame, empty request

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if len(data) >= 4 {
				n := binary.BigEndian.Uint32(data)
				if n <= maxFrame && uint64(len(data)-4) >= uint64(n) {
					t.Fatalf("complete %d-byte frame rejected: %v", n, err)
				}
			}
			return
		}
		if len(data) < 4 {
			t.Fatalf("body returned from %d bytes, shorter than the header", len(data))
		}
		n := binary.BigEndian.Uint32(data)
		if n > maxFrame {
			t.Fatalf("body returned for length %d over the %d limit", n, maxFrame)
		}
		if uint64(len(body)) != uint64(n) || !bytes.Equal(body, data[4:4+n]) {
			t.Fatalf("body of %d bytes is not the %d bytes after the header", len(body), n)
		}
		again, err := readFrame(bytes.NewReader(data[:4+n]))
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("header plus body does not re-read to the body: err=%v", err)
		}

		var req request
		if json.Unmarshal(body, &req) != nil {
			return // the server hangs up on a non-request
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		frame, err := encodeFrame(req)
		if err != nil {
			return // re-encoding escaped past the frame limit
		}
		reread, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("re-encoded request frame does not read: %v", err)
		}
		var req2 request
		if err := json.Unmarshal(reread, &req2); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if got, _ := json.Marshal(req2); !bytes.Equal(got, want) {
			t.Fatalf("request round trip diverged:\n%s\nvs\n%s", got, want)
		}
	})
}
