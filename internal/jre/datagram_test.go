package jre

import (
	"slices"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
)

// datagramShape is one RQ1 payload for the datagram paths: the labels
// each byte carries and the largest datagram its cheapest sound
// per-packet form may take.
type datagramShape struct {
	name    string
	label   func(i int) string // tag byte i carries, "" = clean
	maxWire int
}

// datagramShapes covers the three tainted per-datagram tiers over an
// n-byte payload: wholly single-labelled (uniform), two dirty islands
// (sparse), and two labels alternating byte by byte (groups).
func datagramShapes(n int) []datagramShape {
	return []datagramShape{
		{"uniform", func(int) string { return "u" },
			wire.PacketOverhead + wire.GlobalIDLen + n},
		{"sparse", func(i int) string {
			if (i >= 8 && i < 16) || (i >= 40 && i < 44) {
				return "s"
			}
			return ""
		}, wire.PacketOverhead + wire.SparseCountLen + 2*wire.SparseRangeLen + n},
		{"dense", func(i int) string {
			if i%2 == 0 {
				return "d1"
			}
			return "d2"
		}, wire.PacketOverhead + wire.WireLen(n)},
	}
}

// build labels an n-byte payload on agent a as the shape describes.
func (s datagramShape) build(a *tracker.Agent, n int) taint.Bytes {
	b := taint.MakeBytes(n)
	for i := range b.Data {
		b.Data[i] = byte('a' + i%26)
		if tag := s.label(i); tag != "" {
			b.SetLabel(i, a.Source("dgram#"+tag, tag))
		}
	}
	return b
}

// checkExact is the RQ1 oracle over one delivered datagram: every byte
// arrives intact and carries exactly the expected label, no more and
// no fewer.
func (s datagramShape) checkExact(t *testing.T, got taint.Bytes, n int) {
	t.Helper()
	if got.Len() != n {
		t.Fatalf("%s: received %d bytes, want %d", s.name, got.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got.Data[i] != byte('a'+i%26) {
			t.Fatalf("%s: byte %d = %q", s.name, i, got.Data[i])
		}
		var want []string
		if tag := s.label(i); tag != "" {
			want = []string{tag}
		}
		if have := got.LabelAt(i).Values(); !slices.Equal(have, want) {
			t.Fatalf("%s: byte %d labels %v, want %v", s.name, i, have, want)
		}
	}
}

// TestDatagramTiersRQ1 sends uniform, sparse and dense payloads through
// DatagramSocket and DatagramChannel: each datagram must take its
// cheapest sound tier (bounded by its wire size) and deliver exactly
// the sent labels.
func TestDatagramTiersRQ1(t *testing.T) {
	const n = 64
	type endpoint struct {
		send func(taint.Bytes) error
		recv func() (taint.Bytes, error)
	}
	transports := []struct {
		name string
		open func(t *testing.T, envs []*Env) endpoint
	}{
		{"DatagramSocket", func(t *testing.T, envs []*Env) endpoint {
			sa, err := OpenDatagramSocket(envs[0], "a:1")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sa.Close() })
			sb, err := OpenDatagramSocket(envs[1], "b:1")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sb.Close() })
			return endpoint{
				send: func(p taint.Bytes) error { return sa.Send(NewDatagramPacket(p, "b:1")) },
				recv: func() (taint.Bytes, error) {
					rcv := NewReceivePacket(2 * n)
					err := sb.Receive(rcv)
					return rcv.Payload(), err
				},
			}
		}},
		{"DatagramChannel", func(t *testing.T, envs []*Env) endpoint {
			ca, err := OpenDatagramChannel(envs[0], "a:1")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ca.Close() })
			cb, err := OpenDatagramChannel(envs[1], "b:1")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cb.Close() })
			return endpoint{
				send: func(p taint.Bytes) error {
					_, err := ca.Send(WrapBuffer(p), "b:1")
					return err
				},
				recv: func() (taint.Bytes, error) {
					dst := AllocateBuffer(2 * n)
					if _, err := cb.Receive(dst); err != nil {
						return taint.Bytes{}, err
					}
					dst.Flip()
					return dst.Get(dst.Remaining()), nil
				},
			}
		}},
	}
	for _, tr := range transports {
		for _, shape := range datagramShapes(n) {
			t.Run(tr.name+"/"+shape.name, func(t *testing.T) {
				envs := cluster(t, tracker.ModeDista, 2)
				ep := tr.open(t, envs)
				if err := ep.send(shape.build(envs[0].Agent, n)); err != nil {
					t.Fatal(err)
				}
				data, wireBytes := envs[0].Agent.Traffic()
				if data != n || wireBytes > int64(shape.maxWire) {
					t.Fatalf("sent %d payload in %d wire bytes, budget %d", data, wireBytes, shape.maxWire)
				}
				got, err := ep.recv()
				if err != nil {
					t.Fatal(err)
				}
				shape.checkExact(t, got, n)
			})
		}
	}
}
