package instrument

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// TestDialTaintMapSingle wires the one-address agent-args form: the
// client routes on the one-member ring {Part: 0} at RF 1, built without
// asking the server for a ring. The address may name a standalone
// server or one member of a cluster. Member 1 of a two-member RF-1
// cluster mints ids under partition 1, which that ring does not list,
// so memo-cold lookups must route every partition to the lone member.
func TestDialTaintMapSingle(t *testing.T) {
	for _, tc := range []struct {
		name, addr string
		part       uint32 // partition the server mints ids under
		start      func(*netsim.Network) ([]*taintmap.Server, error)
	}{
		{"standalone", "tm:1", 0, func(n *netsim.Network) ([]*taintmap.Server, error) {
			srv, err := taintmap.StartSimServer(n, "tm:1")
			return []*taintmap.Server{srv}, err
		}},
		{"cluster-member", "tm1:1", 1, func(n *netsim.Network) ([]*taintmap.Server, error) {
			servers, _, err := taintmap.StartSimCluster(n, 2, 1)
			return servers, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			network := netsim.New()
			servers, err := tc.start(network)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, s := range servers {
					s.Close()
				}
			}()
			args, err := tracker.ParseAgentArgs("mode=dista,taintmap=" + tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			dial := func(local string) func(string) (io.ReadWriteCloser, error) {
				return func(addr string) (io.ReadWriteCloser, error) { return network.DialFrom(local, addr) }
			}

			tree := taint.NewTree()
			writer, err := DialTaintMap(args, tree, dial("agent:1"), taintmap.ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer writer.Close()
			cc, ok := writer.(*taintmap.ClusterClient)
			if !ok {
				t.Fatalf("single-address client is %T, want *taintmap.ClusterClient", writer)
			}
			if r := cc.Ring(); r.RF != 1 || len(r.Members()) != 1 || r.Members()[0] != (taintmap.Member{Part: 0, Addr: tc.addr}) {
				t.Fatalf("single-address ring = RF %d, members %v; want RF 1, {0 %s}", r.RF, r.Members(), tc.addr)
			}

			srcs := make([]taint.Taint, 8)
			for i := range srcs {
				srcs[i] = tree.NewSource(fmt.Sprintf("single-%d", i), "agent:1")
			}
			ids := make([]uint32, len(srcs))
			for i, src := range srcs[:4] {
				if ids[i], err = writer.Register(src); err != nil {
					t.Fatalf("Register %d: %v", i, err)
				}
			}
			batch, err := writer.RegisterBatch(srcs[4:])
			if err != nil {
				t.Fatalf("RegisterBatch: %v", err)
			}
			copy(ids[4:], batch)
			for i, id := range ids {
				if id == 0 || taintmap.IsProvisional(id) || taintmap.PartitionOf(id) != tc.part {
					t.Fatalf("id %d = %#x, want a real partition-%d id", i, id, tc.part)
				}
			}

			// Fresh clients, so the memo cannot answer.
			reader, err := DialTaintMap(args, taint.NewTree(), dial("agent:2"), taintmap.ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Close()
			for i, id := range ids {
				got, err := reader.Lookup(id)
				if err != nil || !sameTaint(got, srcs[i]) {
					t.Fatalf("Lookup(%#x) = %v, %v; want taint %d back", id, got, err, i)
				}
			}
			batchReader, err := DialTaintMap(args, taint.NewTree(), dial("agent:3"), taintmap.ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer batchReader.Close()
			got, err := batchReader.LookupBatch(ids)
			if err != nil {
				t.Fatalf("LookupBatch: %v", err)
			}
			for i := range ids {
				if !sameTaint(got[i], srcs[i]) {
					t.Fatalf("LookupBatch slot %d = %v; want taint %d back", i, got[i], i)
				}
			}
		})
	}
}

// sameTaint reports whether two taints have byte-identical content — the
// canonical wire blob is the Taint Map's identity, so it is ours too.
func sameTaint(a, b taint.Taint) bool {
	ab, aerr := taint.MarshalTaint(a)
	bb, berr := taint.MarshalTaint(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// TestDialTaintMapCluster wires the multi-address form against a live
// 3-member cluster: the ring must be bootstrapped from the listed
// members and registrations must spread across partitions — the agent
// never names a partition, only addresses.
func TestDialTaintMapCluster(t *testing.T) {
	network := netsim.New()
	servers, ring, err := taintmap.StartSimCluster(network, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	args, err := tracker.ParseAgentArgs("mode=dista,taintmap=tm0:1;tm1:1;tm2:1")
	if err != nil {
		t.Fatal(err)
	}
	if got := args.TaintMapAddrs(); len(got) != 3 {
		t.Fatalf("TaintMapAddrs = %q, want 3 addresses", got)
	}
	tree := taint.NewTree()
	client, err := DialTaintMap(args, tree, func(addr string) (io.ReadWriteCloser, error) {
		return network.DialFrom("agent:1", addr)
	}, taintmap.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cc, ok := client.(*taintmap.ClusterClient)
	if !ok {
		t.Fatalf("multi-address client is %T, want *taintmap.ClusterClient", client)
	}
	if got := cc.Ring(); got.Epoch != ring.Epoch || len(got.Members()) != 3 {
		t.Fatalf("bootstrapped ring epoch %d with %d members, want epoch %d with 3",
			got.Epoch, len(got.Members()), ring.Epoch)
	}

	parts := make(map[uint32]bool)
	ids := make([]uint32, 0, 64)
	srcs := make([]taint.Taint, 0, 64)
	for i := 0; i < 64; i++ {
		src := tree.NewSource(fmt.Sprintf("clustered-%d", i), "agent:1")
		id, err := client.Register(src)
		if err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
		parts[taintmap.PartitionOf(id)] = true
		ids = append(ids, id)
		srcs = append(srcs, src)
	}
	if len(parts) < 2 {
		t.Fatalf("64 registrations landed on partitions %v; want spread over several", parts)
	}
	for i, id := range ids {
		got, err := client.Lookup(id)
		if err != nil || !sameTaint(got, srcs[i]) {
			t.Fatalf("Lookup(%d) = %v, %v; want taint %d back", id, got, err, i)
		}
	}
}

// TestDialTaintMapBootstrapSkipsDeadSeed cuts the first listed member
// off the network: bootstrap must fall through to a live member instead
// of failing on the dead seed.
func TestDialTaintMapBootstrapSkipsDeadSeed(t *testing.T) {
	network := netsim.New()
	servers, _, err := taintmap.StartSimCluster(network, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	network.Partition("tm0", "*")

	args, err := tracker.ParseAgentArgs("taintmap=tm0:1;tm1:1;tm2:1")
	if err != nil {
		t.Fatal(err)
	}
	tree := taint.NewTree()
	client, err := DialTaintMap(args, tree, func(addr string) (io.ReadWriteCloser, error) {
		return network.DialFrom("agent:1", addr)
	}, taintmap.ClusterOptions{})
	if err != nil {
		t.Fatalf("bootstrap with a dead seed: %v", err)
	}
	client.Close()
}

// TestDialTaintMapNoAddresses pins the error contract: an empty
// taintmap value is ErrNoTaintMap, same as a dista-mode agent with no
// client at all.
func TestDialTaintMapNoAddresses(t *testing.T) {
	args, err := tracker.ParseAgentArgs("mode=dista")
	if err != nil {
		t.Fatal(err)
	}
	_, err = DialTaintMap(args, taint.NewTree(), func(string) (io.ReadWriteCloser, error) {
		t.Fatal("dial must not be called with no addresses")
		return nil, nil
	}, taintmap.ClusterOptions{})
	if !errors.Is(err, ErrNoTaintMap) {
		t.Fatalf("DialTaintMap with no addresses = %v, want ErrNoTaintMap", err)
	}
}
