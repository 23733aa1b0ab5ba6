// Command mvee-top prints a running fleet's report (admin.Report, the
// /statusz page) from its admin plane (mvee-serve -admin), one-shot or
// continuously:
//
//	mvee-top -addr 127.0.0.1:9090            # one report
//	mvee-top -addr 127.0.0.1:9090 -watch 1s  # refresh until interrupted
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "admin-plane address of a running mvee-serve")
	watch := flag.Duration("watch", 0, "refresh interval (0 = print once and exit)")
	flag.Parse()

	for {
		report, err := fetch(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvee-top:", err)
			os.Exit(1)
		}
		if *watch > 0 {
			fmt.Print("\033[H\033[2J") // clear: top-style refresh
		}
		fmt.Print(report)
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
	}
}

func fetch(addr string) (string, error) {
	resp, err := http.Get("http://" + addr + "/statusz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /statusz: status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
