// Command taintmapd runs a standalone Taint Map server over real TCP —
// the independent process of DSN'22 §III-D that all nodes of a DisTA
// deployment contact to exchange Global IDs for taints.
//
// The server speaks one protocol: tagged, pipelined frames that
// multiplexed clients interleave on one connection. A frame with an
// unknown op byte closes its connection. The store behind it is
// sharded, so concurrent connections register and look up taints
// without funneling through one lock.
//
// Usage:
//
//	taintmapd [-addr :7431] [-v] [-stats-every 1m] [-read-timeout 0]
//	          [-max-conns 0] [-max-active 0] [-max-queue -1] [-grace 5s]
//	          [-part 0] [-peers part@addr,part@addr,...] [-rf 2]
//	          [-join host:port]
//
// Overload behavior: -max-active bounds the requests executing at once
// (with up to -max-queue more waiting; beyond that requests are
// answered with an overloaded error instead of executing), and
// connections over -max-conns are browned out — briefly answered with
// overloaded errors so well-behaved clients back off — rather than
// silently dropped.
//
// Cluster mode: with -peers (a static membership list) or -join (a seed
// member of a running cluster), the server becomes partition -part of a
// partitioned Taint Map — it answers ring/join requests, replicates its
// fresh registrations to its ring successors before acking, and adopts
// the entries its predecessors replicate to it. -advertise overrides
// the address peers and clients should dial for this server (defaults
// to -addr, which is rarely routable when it is just ":port").
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting,
// lets in-flight connections finish (bounded by -grace), logs the final
// store counters, and exits. A second signal forces an immediate stop.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dista/internal/taintmap"
)

func main() {
	addr := flag.String("addr", ":7431", "TCP listen address")
	verbose := flag.Bool("v", false, "log connection errors")
	statsEvery := flag.Duration("stats-every", 0,
		"periodically log store counters (0 disables)")
	readTimeout := flag.Duration("read-timeout", 0,
		"drop connections idle or mid-frame for this long (0 disables)")
	maxConns := flag.Int("max-conns", 0,
		"brown out connections over this concurrency cap (0 means unlimited)")
	maxActive := flag.Int("max-active", 0,
		"max requests executing at once; excess queue then shed (0 means unlimited)")
	maxQueue := flag.Int("max-queue", -1,
		"max requests waiting for an execution slot (-1 means 4*max-active)")
	grace := flag.Duration("grace", 5*time.Second,
		"how long a signal-triggered shutdown waits for connections to drain")
	part := flag.Uint("part", 0, "cluster partition index of this server")
	peers := flag.String("peers", "",
		"static cluster membership as part@addr,part@addr,... (this server included or not)")
	rf := flag.Int("rf", taintmap.DefaultReplication,
		"cluster replication factor (owner + rf-1 successors)")
	join := flag.String("join", "",
		"join a running cluster via this seed member address")
	advertise := flag.String("advertise", "",
		"address peers/clients dial for this server (default -addr)")
	flag.Parse()

	cl := clusterFlags{part: uint32(*part), peers: *peers, rf: *rf, join: *join, advertise: *advertise}
	adm := admissionFlags{maxActive: *maxActive, maxQueue: *maxQueue}
	if err := run(*addr, *verbose, *statsEvery, *readTimeout, *maxConns, adm, *grace, cl); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// tcpAcceptor adapts net.Listener to the taintmap.Acceptor interface.
type tcpAcceptor struct {
	l net.Listener
}

func (a tcpAcceptor) Accept() (io.ReadWriteCloser, error) { return a.l.Accept() }
func (a tcpAcceptor) Close() error                        { return a.l.Close() }

// admissionFlags carries the request-gate command line.
type admissionFlags struct {
	maxActive int
	maxQueue  int
}

// clusterFlags carries the cluster-mode command line.
type clusterFlags struct {
	part      uint32
	peers     string
	rf        int
	join      string
	advertise string
}

// parsePeers decodes -peers: comma-separated part@addr entries.
func parsePeers(s string) ([]taintmap.Member, error) {
	var members []taintmap.Member
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		at := strings.IndexByte(entry, '@')
		if at <= 0 {
			return nil, fmt.Errorf("taintmapd: -peers entry %q is not part@addr", entry)
		}
		part, err := strconv.ParseUint(entry[:at], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("taintmapd: -peers entry %q: %v", entry, err)
		}
		members = append(members, taintmap.Member{Part: uint32(part), Addr: entry[at+1:]})
	}
	return members, nil
}

func run(addr string, verbose bool, statsEvery, readTimeout time.Duration, maxConns int, adm admissionFlags, grace time.Duration, cl clusterFlags) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("taintmapd: listen: %w", err)
	}
	logf := func(string, ...any) {}
	if verbose {
		logf = log.Printf
	}

	opts := []taintmap.ServerOption{
		taintmap.WithReadTimeout(readTimeout), taintmap.WithMaxConns(maxConns),
		taintmap.WithAdmission(adm.maxActive, adm.maxQueue),
	}
	store := taintmap.NewStore()
	var node *taintmap.ClusterNode
	if cl.peers != "" || cl.join != "" {
		if store, err = taintmap.NewPartitionStore(cl.part); err != nil {
			return err
		}
		self := taintmap.Member{Part: cl.part, Addr: cl.advertise}
		if self.Addr == "" {
			self.Addr = l.Addr().String()
		}
		members, err := parsePeers(cl.peers)
		if err != nil {
			return err
		}
		dial := func(peerAddr string) (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", peerAddr, 2*time.Second)
		}
		if node, err = taintmap.NewClusterNode(self, members, cl.rf, dial); err != nil {
			return err
		}
		if cl.join != "" {
			ring, err := node.JoinVia(cl.join)
			if err != nil {
				return err
			}
			log.Printf("taintmapd: joined cluster epoch %d (%d members)", ring.Epoch, len(ring.Members()))
		}
		opts = append(opts, taintmap.WithClusterNode(node))
		log.Printf("taintmapd: cluster partition %d, rf %d", cl.part, node.Ring().RF)
	}

	srv := taintmap.NewServer(store, tcpAcceptor{l: l}, logf, opts...)
	srv.Start()
	log.Printf("taintmapd: serving on %s", l.Addr())

	stopStats := make(chan struct{})
	if statsEvery > 0 {
		go func() {
			t := time.NewTicker(statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					st := srv.Store().Stats()
					log.Printf("taintmapd: %d global taints, %d registrations, %d lookups",
						st.GlobalTaints, st.Registrations, st.Lookups)
					ss := srv.Stats()
					log.Printf("taintmapd: %d conns (%d accepted, %d browned out, %d refused); requests %d admitted, %d queued, %d shed",
						ss.ActiveConns, ss.Accepted, ss.ShedConns, ss.RefusedConns,
						ss.AdmittedReqs, ss.QueuedReqs, ss.ShedReqs)
				case <-stopStats:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopStats)
	log.Printf("taintmapd: draining (up to %v); signal again to force stop", grace)

	// A second signal skips the drain.
	go func() {
		<-sig
		log.Printf("taintmapd: forced stop")
		srv.Close()
	}()
	err = srv.Shutdown(grace)
	if node != nil {
		node.Close()
	}

	st := srv.Store().Stats()
	log.Printf("taintmapd: shut down (%d global taints, %d registrations, %d lookups)",
		st.GlobalTaints, st.Registrations, st.Lookups)
	return err
}
