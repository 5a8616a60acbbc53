package wlg

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"psrahgadmm/internal/transport"
)

// tcpMesh brings up an n-rank TCP mesh on loopback. The endpoints are
// closed when the test ends; closing one earlier is harmless.
func tcpMesh(t *testing.T, n int) []transport.Endpoint {
	t.Helper()
	var err error
	for try := 0; try < 5; try++ {
		var eps []transport.Endpoint
		if eps, err = establishMesh(n); err == nil {
			t.Cleanup(func() {
				for _, ep := range eps {
					ep.Close()
				}
			})
			return eps
		}
	}
	t.Fatalf("mesh establishment: %v", err)
	return nil
}

// establishMesh reserves one loopback port per rank (listen on :0, note
// the address, close) so every endpoint knows all addresses before any
// starts. Another socket can take a reserved port before its rank listens
// — an outgoing dial's ephemeral port, say — and the attempt then fails
// within the dial budget, closing what it opened, for the caller to retry
// on fresh ports.
func establishMesh(n int) ([]transport.Endpoint, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	eps := make([]transport.Endpoint, n)
	errs := make([]error, n)
	var setup sync.WaitGroup
	for i := range eps {
		setup.Add(1)
		go func(i int) {
			defer setup.Done()
			eps[i], errs[i] = transport.NewTCPEndpoint(i, addrs, transport.TCPOptions{DialTimeout: 5 * time.Second})
		}(i)
	}
	setup.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
		return nil, err
	}
	return eps, nil
}
