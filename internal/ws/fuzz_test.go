package ws

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzMaxPayload is the payload bound the fuzzed connections enforce,
// small so that length fields past it are easy to reach.
const fuzzMaxPayload = 1 << 10

// frameBytes encodes one frame as a peer would send it: masked with key
// when key is non-nil.
func frameBytes(b0 byte, key []byte, payload []byte) []byte {
	out := []byte{b0}
	mask := byte(0)
	if key != nil {
		mask = 0x80
	}
	switch n := len(payload); {
	case n < 126:
		out = append(out, mask|byte(n))
	case n <= 0xffff:
		out = append(out, mask|126)
		out = binary.BigEndian.AppendUint16(out, uint16(n))
	default:
		out = append(out, mask|127)
		out = binary.BigEndian.AppendUint64(out, uint64(n))
	}
	if key != nil {
		out = append(out, key...)
		for i, b := range payload {
			out = append(out, b^key[i&3])
		}
		return out
	}
	return append(out, payload...)
}

// parsedFrame is the test's own reading of the frame at the head of in:
// the header fields and the unmasked payload, with the frame's length in
// bytes. ok is false when in is too short to hold the whole frame.
type parsedFrame struct {
	fin, masked bool
	rsv, op     byte
	payload     []byte
	size        int
}

func parseFrame(in []byte) (f parsedFrame, ok bool) {
	if len(in) < 2 {
		return f, false
	}
	f.fin, f.rsv, f.op = in[0]&0x80 != 0, in[0]&0x70, in[0]&0x0f
	f.masked = in[1]&0x80 != 0
	n, off := uint64(in[1]&0x7f), 2
	switch n {
	case 126:
		if len(in) < 4 {
			return f, false
		}
		n, off = uint64(binary.BigEndian.Uint16(in[2:])), 4
	case 127:
		if len(in) < 10 {
			return f, false
		}
		n, off = binary.BigEndian.Uint64(in[2:]), 10
	}
	var key []byte
	if f.masked {
		if len(in) < off+4 {
			return f, false
		}
		key, off = in[off:off+4], off+4
	}
	if n > uint64(len(in)-off) {
		return f, false
	}
	f.payload = append([]byte(nil), in[off:off+int(n)]...)
	if key != nil {
		for i := range f.payload {
			f.payload[i] ^= key[i&3]
		}
	}
	f.size = off + int(n)
	return f, true
}

// FuzzReadFrame feeds arbitrary bytes to readFrame on both sides of a
// connection. It must never panic and never return a payload past
// maxPayload; every frame it accepts must be whole, carry no RSV bits,
// be masked exactly when a client sent it, obey the control-frame rules
// (FIN set, at most 125 bytes) and decode to the payload the peer masked.
// ReadMessage over the same bytes must not panic either, and never
// assembles a message past maxPayload.
func FuzzReadFrame(f *testing.F) {
	key := []byte{0x37, 0xfa, 0x21, 0x3d}
	f.Add(frameBytes(0x82, key, []byte("hello")))
	f.Add(frameBytes(0x82, nil, []byte("hello")))
	f.Add(frameBytes(0x89, key, bytes.Repeat([]byte{1}, 126))) // oversized ping
	f.Add(frameBytes(0x09, key, []byte("ping")))               // fragmented ping
	f.Add(frameBytes(0xc2, key, []byte("rsv")))
	f.Add(frameBytes(0x82, key, bytes.Repeat([]byte{7}, 300)))
	f.Add(frameBytes(0x82, key, bytes.Repeat([]byte{7}, fuzzMaxPayload+1)))
	f.Add([]byte{0x82, 0xff, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(append(append(frameBytes(0x01, key, []byte("frag")), frameBytes(0x8a, key, nil)...),
		frameBytes(0x80, key, []byte("ment"))...))
	f.Add(append(frameBytes(0x88, key, []byte{0x03, 0xe8, 'b', 'y', 'e'}), frameBytes(0x81, nil, []byte("x"))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, client := range []bool{false, true} {
			c := &Conn{br: bufio.NewReader(bytes.NewReader(data)), client: client, maxPayload: fuzzMaxPayload}
			rest := data
			for {
				op, fin, p, err := c.readFrame()
				if err != nil {
					break
				}
				want, ok := parseFrame(rest)
				switch {
				case !ok:
					t.Fatalf("client=%v: readFrame accepted a truncated frame", client)
				case len(p) > fuzzMaxPayload:
					t.Fatalf("client=%v: %d-byte payload past the %d bound", client, len(p), fuzzMaxPayload)
				case want.rsv != 0:
					t.Fatalf("client=%v: accepted RSV bits %#x", client, want.rsv)
				case want.masked == client:
					t.Fatalf("client=%v: accepted a frame with mask bit %v", client, want.masked)
				case op >= OpClose && (!fin || len(p) > 125):
					t.Fatalf("client=%v: accepted control frame op %#x fin %v len %d", client, byte(op), fin, len(p))
				case byte(op) != want.op || fin != want.fin || !bytes.Equal(p, want.payload):
					t.Fatalf("client=%v: read op %#x fin %v %q, frame holds op %#x fin %v %q",
						client, byte(op), fin, p, want.op, want.fin, want.payload)
				}
				rest = rest[want.size:]
			}

			c = &Conn{br: bufio.NewReader(bytes.NewReader(data)), client: client, maxPayload: fuzzMaxPayload}
			for {
				_, p, err := c.ReadMessage()
				if err != nil {
					break
				}
				if len(p) > fuzzMaxPayload {
					t.Fatalf("client=%v: assembled a %d-byte message past the bound", client, len(p))
				}
			}
		}
	})
}
