// Command mvee-bench regenerates the paper's evaluation: Table 1
// (aggregated agent slowdowns), Table 2 (native rates), Table 3 (sync-op
// identification), Figure 5 (per-benchmark overhead series), and the §5.5
// nginx throughput experiment.
//
// Usage:
//
//	mvee-bench -table 1            # aggregated slowdowns, 2-4 variants
//	mvee-bench -table 2            # native run times and rates
//	mvee-bench -table 3            # sync-op identification per library, both stage-2 analyses
//	mvee-bench -figure 5           # per-benchmark overhead series
//	mvee-bench -nginx              # §5.5 server throughput overhead, thread-pool and evented
//	mvee-bench -all -scale 0.5     # everything, at half work scale
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/agent"
	"repro/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "regenerate table 1, 2 or 3")
	figure := flag.Int("figure", 0, "regenerate figure 5")
	nginx := flag.Bool("nginx", false, "run the §5.5 nginx throughput experiment")
	all := flag.Bool("all", false, "run everything")
	scale := flag.Float64("scale", 1.0, "work-unit scale factor for all workloads")
	reps := flag.Int("reps", 1, "repetitions per measurement (minimum kept)")
	workers := flag.Int("workers", 4, "worker threads per variant")
	maxVariants := flag.Int("max-variants", 4, "largest variant count measured")
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Workers: *workers, Reps: *reps}
	variantCounts := []int{}
	for n := 2; n <= *maxVariants; n++ {
		variantCounts = append(variantCounts, n)
	}
	agents := []agent.Kind{agent.TotalOrder, agent.PartialOrder, agent.WallOfClocks}

	ran := false
	if *all || *table == 2 {
		ran = true
		fmt.Println("== Table 2: native run times, system call and sync op rates ==")
		tbl, _ := bench.Table2(cfg)
		fmt.Println(tbl)
	}
	if *all || *table == 3 {
		ran = true
		fmt.Println("== Table 3: sync ops identified (stage 2: Andersen/SVF-style; Steensgaard/DSA-style type (iii) beside it) ==")
		tbl, _ := bench.Table3()
		fmt.Println(tbl)
	}
	if *all || *figure == 5 {
		ran = true
		fmt.Println("== Figure 5: relative overhead per benchmark (agents x variants) ==")
		tbl, _ := bench.Figure5(cfg, agents, variantCounts)
		fmt.Println(tbl)
	}
	if *all || *table == 1 {
		ran = true
		fmt.Println("== Table 1: aggregated average slowdowns ==")
		tbl, _ := bench.Table1(cfg, variantCounts)
		fmt.Println(tbl)
	}
	if *all || *nginx {
		ran = true
		fmt.Println("== §5.5: nginx-style server, loopback throughput ==")
		fmt.Println("(paper: 48% overhead on loopback, 3% over gigabit LAN)")
		for _, evented := range []bool{false, true} {
			mode := "thread-pool"
			if evented {
				mode = "evented"
			}
			nat, mv, ov, recs, err := bench.Nginx(2, 10, 50, evented)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("%-11s native %8.0f req/s  2-variant %8.0f req/s  overhead %5.1f%%  %.2f records/req\n",
				mode, nat, mv, ov*100, recs)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
