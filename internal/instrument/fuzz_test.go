package instrument

import (
	"fmt"
	"io"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
)

// FuzzTierTransition drives an endpoint pair through a fuzzer-chosen
// density schedule and checks the one property the tier machine must
// never lose: every byte arrives with exactly the labels
// it was sent with, no matter how the stream flaps between the
// passthrough, uniform, sparse and groups encodings. Each pair of
// input bytes is one message — the first picks the kind (clean,
// uniform, sparse island, dense alternation) and the label source, the
// second the length — so the fuzzer explores tier transitions the
// phased unit tests never schedule.
func FuzzTierTransition(f *testing.F) {
	// One phase per tier, long enough to converge.
	steady := func(kind byte) []byte {
		var s []byte
		for i := 0; i < 12; i++ {
			s = append(s, kind, 63)
		}
		return s
	}
	f.Add(steady(1))                                             // uniform
	f.Add(steady(2))                                             // sparse
	f.Add(steady(3))                                             // dense
	f.Add([]byte{1, 255, 2, 31, 0, 15, 3, 63})                   // one message per tier
	f.Add([]byte{1, 7, 0, 7, 1, 7, 0, 7, 1, 7})                  // clean/uniform interleave
	f.Add([]byte{3, 0, 1, 0, 3, 0, 1, 0, 2, 0})                  // tiny flapping messages
	f.Add(append(steady(1), append(steady(3), steady(1)...)...)) // U->G->U

	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) < 2 {
			return
		}
		if len(sched) > 128 {
			sched = sched[:128] // at most 64 messages per exec
		}

		r := newRig(t, tracker.ModeDista)
		srcs := []taint.Taint{
			r.a.Source("fz0", "fz0"),
			r.a.Source("fz1", "fz1"),
			r.a.Source("fz2", "fz2"),
		}
		tagOf := []string{"fz0", "fz1", "fz2"}

		// Decode the schedule into messages first so the reader knows the
		// exact stream length; wantTag[i] is the label byte i of the
		// concatenated stream must carry ("" = must stay clean).
		var msgs []taint.Bytes
		var wantTag []string
		for i := 0; i+1 < len(sched); i += 2 {
			kind, n := sched[i]%4, 1+int(sched[i+1])
			li := int(sched[i]>>2) % len(srcs)
			b := taint.MakeBytes(n)
			for j := range b.Data {
				b.Data[j] = '0' + kind
			}
			switch kind {
			case 0: // clean
				for j := 0; j < n; j++ {
					wantTag = append(wantTag, "")
				}
			case 1: // uniform
				b.SetRange(0, n, srcs[li])
				for j := 0; j < n; j++ {
					wantTag = append(wantTag, tagOf[li])
				}
			case 2: // sparse: one dirty island placed by the fuzzer
				off := int(sched[i]>>2) % n
				end := off + 1 + int(sched[i+1]>>5)
				if end > n {
					end = n
				}
				b.SetRange(off, end, srcs[li])
				for j := 0; j < n; j++ {
					if j >= off && j < end {
						wantTag = append(wantTag, tagOf[li])
					} else {
						wantTag = append(wantTag, "")
					}
				}
			case 3: // dense: alternate two sources byte by byte
				for j := 0; j < n; j++ {
					if j%2 == 0 {
						b.SetLabel(j, srcs[li])
						wantTag = append(wantTag, tagOf[li])
					} else {
						b.SetLabel(j, srcs[(li+1)%len(srcs)])
						wantTag = append(wantTag, tagOf[(li+1)%len(srcs)])
					}
				}
			}
			msgs = append(msgs, b)
		}
		total := len(wantTag)

		ca, cb := r.net.Pipe()
		sender, receiver := NewEndpoint(r.a, ca), NewEndpoint(r.b, cb)

		got := taint.MakeBytes(total)
		recvErr := make(chan error, 1)
		go func() {
			recvErr <- func() error {
				for pos := 0; pos < total; {
					sub := got.Slice(pos, total)
					n, err := receiver.Read(&sub)
					if err != nil {
						return fmt.Errorf("read at %d/%d: %w", pos, total, err)
					}
					pos += n
				}
				// The stream must end exactly where the schedule says.
				tail := taint.MakeBytes(1)
				if n, err := receiver.Read(&tail); err != io.EOF || n != 0 {
					return fmt.Errorf("trailing read = %d, %v; want 0, EOF", n, err)
				}
				return nil
			}()
		}()

		for mi, msg := range msgs {
			if err := sender.Write(msg); err != nil {
				t.Fatalf("write %d (kind %q, len %d): %v", mi, msg.Data[0], msg.Len(), err)
			}
		}
		ca.Close()
		if err := <-recvErr; err != nil {
			t.Fatal(err)
		}

		for i, want := range wantTag {
			lbl := got.LabelAt(i)
			if want == "" {
				if !lbl.Empty() {
					t.Fatalf("stream byte %d (kind %q) grew taint %v", i, got.Data[i], lbl.Values())
				}
				continue
			}
			if !lbl.Has(want) {
				t.Fatalf("stream byte %d (kind %q) lost label %q (has %v)", i, got.Data[i], want, lbl.Values())
			}
		}
	})
}
