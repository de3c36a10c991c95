package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"lscr"
	"lscr/api"
	"lscr/client"
	"lscr/server"
)

// lscrd's listener limits (cmd/lscrd).
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// service is the program as lscrd runs it: the server handler with
// lscrd's default options on a loopback listener, and a typed client
// with one connection per load-generator goroutine.
type service struct {
	handler http.Handler
	srv     *http.Server
	hc      *http.Client
	cl      *client.Client
	done    chan struct{}
}

func lscrdHandler(eng *lscr.Engine) http.Handler {
	// lscrd passes server.WithAdmission with its flag defaults, all zero:
	// no admission limit.
	return server.New(eng, eng.KG(), server.WithAdmission(server.AdmissionOptions{}))
}

func startService(eng *lscr.Engine, conns int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{handler: lscrdHandler(eng), done: make(chan struct{})}
	s.srv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		s.srv.Serve(ln)
		close(s.done)
	}()
	s.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     idleTimeout,
		DisableCompression:  true,
	}}
	// Retries would hide failed operations; every attempt is counted.
	s.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(s.hc), client.WithRetry(1, time.Millisecond))
	return s, nil
}

func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
	s.hc.CloseIdleConnections()
}

// sample is one completed /v1/query call.
type sample struct {
	req        int
	sent, recv time.Time
	resp       api.QueryResponse
	err        error
}

func (s sample) latency() time.Duration { return s.recv.Sub(s.sent) }

// closedLoop runs readers goroutines, each sending the next request as
// soon as the previous one is answered, until deadline. Reader i starts
// at offset i·len(reqs)/readers and walks the list cyclically. It
// returns each reader's samples in order; order gives the request
// sequence when step is negative (walking backwards, for warm-up).
func closedLoop(cl *client.Client, reqs []request, readers int, deadline time.Time, step int) [][]sample {
	out := make([][]sample, readers)
	var wg sync.WaitGroup
	n := len(reqs)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r * n / readers
			var mine []sample
			for time.Now().Before(deadline) {
				idx := ((i % n) + n) % n
				s := sample{req: idx, sent: time.Now()}
				s.resp, s.err = cl.Query(context.Background(), reqs[idx].wire)
				s.recv = time.Now()
				mine = append(mine, s)
				i += step
			}
			out[r] = mine
		}(r)
	}
	wg.Wait()
	return out
}
