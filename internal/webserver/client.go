package webserver

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
)

// LoadResult summarizes a load-generation run (the wrk measurements of
// §5.5).
type LoadResult struct {
	Requests  int
	Responses int
	Bytes     int
	Errors    int
	Duration  time.Duration
}

// Throughput returns responses per second.
func (r LoadResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Responses) / r.Duration.Seconds()
}

// GenerateLoad plays the wrk role: conns concurrent connections each issue
// requestsPerConn GET requests for the static page and read the responses.
// It runs outside the MVEE, against the session kernel.
//
// Connections are KEEP-ALIVE: each worker holds one open connection and
// reuses it across requests, reconnecting transparently when the server
// turns out to have closed it (the thread-pool and prefork modes close per
// request; the evented mode keeps the connection). A response is framed by
// a single read, which holds any page that fits the kernel's 64 KiB pipe
// buffer.
func GenerateLoad(k *kernel.Kernel, port uint16, conns, requestsPerConn int) LoadResult {
	start := time.Now()
	var mu sync.Mutex
	res := LoadResult{}
	var wg sync.WaitGroup
	// Hoisted out of the request loop: the request bytes are constant and
	// the response buffer is reused — the load generator must not be the
	// process's allocation hot spot when it is the measuring instrument.
	request := []byte("GET / HTTP/1.1")
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := LoadResult{}
			buf := make([]byte, 8192)
			var cc kernel.ClientConn
			open := false
			for r := 0; r < requestsPerConn; r++ {
				local.Requests++
				got := 0
				// Two attempts: a write error or an immediate EOF on a kept
				// connection means the server closed it between requests —
				// an ordinary keep-alive race, retried once on a fresh
				// connection rather than counted as a failure.
				for attempt := 0; attempt < 2 && got == 0; attempt++ {
					if !open {
						c, errno := k.Connect(port)
						if errno != kernel.OK {
							break
						}
						cc, open = c, true
					}
					if _, err := cc.Write(request); err != nil {
						cc.Close()
						open = false
						continue
					}
					n, err := cc.Read(buf)
					if err != nil || n == 0 {
						cc.Close()
						open = false
						continue
					}
					got = n
				}
				if got > 0 {
					local.Responses++
					local.Bytes += got
				} else {
					local.Errors++
				}
			}
			if open {
				cc.Close()
			}
			mu.Lock()
			res.Requests += local.Requests
			res.Responses += local.Responses
			res.Bytes += local.Bytes
			res.Errors += local.Errors
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Duration = time.Since(start)
	return res
}

// Request plays one client: it sends line on a fresh connection and returns
// the server's response, read in one piece. The attacks (POST /upload
// <gadget>), /count and the prefork worker-death endpoints are all one
// Request.
func Request(k *kernel.Kernel, port uint16, line string) (string, error) {
	cc, errno := k.Connect(port)
	if errno != kernel.OK {
		return "", errno
	}
	defer cc.Close()
	if _, err := cc.Write([]byte(line)); err != nil {
		return "", err
	}
	buf := make([]byte, 8192)
	n, err := cc.Read(buf)
	if err != nil {
		return "", err
	}
	return string(buf[:n]), nil
}

// Start runs the server program in a new session and returns once its
// listener is up: it probes with one GET / (served like any request) until
// a connect succeeds, and fails if the session ends or 10 s pass first.
// stop closes the listener and returns the session's result once the
// server has shut down; a server still running a minute later is killed.
func Start(opts core.Options, cfg Config) (s *core.Session, stop func() *core.Result, err error) {
	cfg.fill()
	s = core.NewSession(opts, Program(cfg))
	done := make(chan *core.Result, 1)
	go func() { done <- s.Run() }()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	timeout := time.After(10 * time.Second)
	for {
		if cc, errno := s.Kernel().Connect(cfg.Port); errno == kernel.OK {
			cc.Write([]byte("GET /"))
			cc.Close()
			return s, func() *core.Result {
				s.Kernel().CloseListener(cfg.Port)
				select {
				case res := <-done:
					return res
				case <-time.After(time.Minute):
					s.Kill()
					return <-done
				}
			}, nil
		}
		select {
		case res := <-done:
			return nil, nil, fmt.Errorf("webserver: session ended before port %d listened (divergence: %v)", cfg.Port, res.Divergence)
		case <-timeout:
			s.Kill()
			<-done
			return nil, nil, fmt.Errorf("webserver: port %d not listening after 10s", cfg.Port)
		case <-tick.C:
		}
	}
}
