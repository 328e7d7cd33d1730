package exp

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// CSVDir, when non-empty on a Config, makes the experiment printers also
// write machine-readable CSV files (one per figure panel) for plotting.
// Columns: x (query/run number) followed by one column per series, values
// in microseconds.
func (c Config) csvSeries(name string, xlabel string, series []Series) error {
	if c.CSVDir == "" || len(series) == 0 {
		return nil
	}
	if err := os.MkdirAll(c.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(c.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{xlabel}
	for _, s := range series {
		header = append(header, s.Name+"_us")
	}
	if err := w.Write(header); err != nil {
		return err
	}
	n := len(series[0].Y)
	for i := 0; i < n; i++ {
		row := []string{strconv.Itoa(i + 1)}
		for _, s := range series {
			var v time.Duration
			if i < len(s.Y) {
				v = s.Y[i]
			}
			row = append(row, strconv.FormatInt(v.Microseconds(), 10))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// csvStorage writes a storage trace (tuples per query) per run.
func (c Config) csvStorage(name string, runs map[string][]int) error {
	if c.CSVDir == "" || len(runs) == 0 {
		return nil
	}
	if err := os.MkdirAll(c.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(c.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	names := make([]string, 0, len(runs))
	n := 0
	for k, v := range runs {
		names = append(names, k)
		if len(v) > n {
			n = len(v)
		}
	}
	sortStrings(names)
	header := []string{"query"}
	for _, k := range names {
		header = append(header, k+"_tuples")
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := []string{strconv.Itoa(i + 1)}
		for _, k := range names {
			v := 0
			if i < len(runs[k]) {
				v = runs[k][i]
			}
			row = append(row, strconv.Itoa(v))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// sanitize turns a figure title into a CSV file stem.
func sanitize(title string) string {
	out := make([]rune, 0, len(title))
	for _, r := range title {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		case r == ' ', r == ':', r == '(', r == ')', r == '/', r == ',':
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '_' {
		out = out[:len(out)-1]
	}
	return string(out)
}

// reportExportError surfaces CSV write problems without failing
// experiments.
func (c Config) reportExportError(err error) {
	if err != nil {
		fmt.Fprintf(c.writer(), "(series export failed: %v)\n", err)
	}
}
