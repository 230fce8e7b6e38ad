package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
	"graph2par/internal/dataset"
)

// input is one translation unit handed to the program under test, with the
// ground truth the output checks and the accuracy metric need. The program
// only ever sees src.
type input struct {
	name string
	src  string
	// label is the index of the dataset's labeled loop among the file's
	// loops in report order (reports are sorted by line, stable in walk
	// order, exactly as the engine emits them).
	label int
	// parallel is the labeled loop's ground truth: the sample's pragma, or
	// the developer forgot it (Mislabeled loops are genuinely parallel).
	parallel bool
	// stratum is the input's class in the stratified draw.
	stratum int
}

// inputSeed maps a workload seed to the dataset generator's seed. The mix
// keeps nearby workload seeds far apart and never yields the training
// seed, so the model is never scored on the corpus it was trained on.
func inputSeed(seed uint64) uint64 {
	s := seed*0x9E3779B97F4A7C15 + 0x7F4A7C15
	if s == trainSeed {
		s++
	}
	return s
}

// maxLoopClass caps the loop count that splits strata; the few files with
// more loops share the top class.
const maxLoopClass = 7

// numStrata is the number of input classes: loop count × array size class
// × runnable or not × ground truth.
const numStrata = (maxLoopClass + 1) * numSizeClasses * 2 * 2

// stratumOf is the class of a file with the given number of loops. The
// first three parts are its cost: the engine's unit of work is the loop,
// the largest array is the working set DiscoPoP interprets, and only
// runnable programs are interpreted; together they explain about two
// thirds of the variance of a file's analysis time. The last part, the
// labeled loop's ground truth, keeps the accuracy of two seeds' draws
// comparable too.
func stratumOf(loops int, src string, runnable, parallel bool) int {
	k := (min(loops, maxLoopClass)*numSizeClasses + sizeClass(src)) * 2
	if runnable {
		k++
	}
	k *= 2
	if parallel {
		k++
	}
	return k
}

// drawInputs generates OMP_Serial translation units from seed and returns n
// of them in a seeded order. No file is dropped for its cost.
//
// The order is stratified on the files' class (stratumOf): every
// prefix of the draw holds each class's share of the generated files
// instead of a random one, so the percentiles of two seeds, and of code
// bases cut from consecutive files, compare like with like.
func drawInputs(seed uint64, n int) ([]input, error) {
	// About 200 translation units per 0.01 of scale; grow until enough.
	scale := float64(n) / 150 * 0.01
	var strata [numStrata][]input
	for total := 0; total < n; scale *= 1.5 {
		strata, total = [numStrata][]input{}, 0
		for _, s := range dataset.Generate(dataset.Config{Scale: scale, Seed: inputSeed(seed)}).Samples {
			if s.FileSrc != "" {
				in, err := newInput(s)
				if err != nil {
					return nil, fmt.Errorf("sample %d: %w", s.ID, err)
				}
				strata[in.stratum] = append(strata[in.stratum], in)
				total++
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	total := 0
	for _, st := range strata {
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
		total += len(st)
	}
	out := make([]input, n)
	var taken [numStrata]int
	for i := range out {
		// Take from the stratum furthest below its share of i+1 files.
		best, deficit := 0, -1.0
		for k, st := range strata {
			d := float64(len(st)*(i+1))/float64(total) - float64(taken[k])
			if taken[k] < len(st) && d > deficit {
				best, deficit = k, d
			}
		}
		out[i] = strata[best][taken[best]]
		out[i].name = fmt.Sprintf("f%04d.c", i)
		taken[best]++
	}
	return out, nil
}

// arrayDim matches an array dimension in a declaration.
var arrayDim = regexp.MustCompile(`\[(\d+)\]`)

// numSizeClasses is the number of classes sizeClass returns.
const numSizeClasses = 5

// sizeClass buckets a source by its largest array dimension: under 1 000,
// under 100 000, under 1 000 000, under 30 000 000, or more. The generator
// draws large arrays from three fixed sizes, and each has a class of its
// own: the largest arrays of a draw set its peak memory.
func sizeClass(src string) int {
	largest := 0
	for _, m := range arrayDim.FindAllStringSubmatch(src, -1) {
		if v, err := strconv.Atoi(m[1]); err == nil && v > largest {
			largest = v
		}
	}
	switch {
	case largest < 1000:
		return 0
	case largest < 100000:
		return 1
	case largest < 1000000:
		return 2
	case largest < 30000000:
		return 3
	}
	return 4
}

// newInput blanks the sample's OpenMP pragmas — each becomes an empty line
// so every other line keeps its number — locates the labeled loop by line
// and column (several loops can share a line) and classes the file's cost.
// The caller names it.
func newInput(s *dataset.Sample) (input, error) {
	lines := strings.Split(s.FileSrc, "\n")
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "#pragma omp") {
			lines[i] = ""
		}
	}
	src := strings.Join(lines, "\n")
	file, err := cparse.ParseFile(src)
	if err != nil {
		return input{}, err
	}
	want := s.Loop.Pos()
	label := -1
	loops := fileLoops(file)
	for i, l := range loops {
		if p := l.Pos(); p.Line == want.Line && p.Col == want.Col {
			label = i
		}
	}
	if label < 0 {
		return input{}, fmt.Errorf("labeled loop at %d:%d not found", want.Line, want.Col)
	}
	parallel := s.Parallel || s.Mislabeled
	return input{
		src:      src,
		label:    label,
		parallel: parallel,
		stratum:  stratumOf(len(loops), src, s.Runnable, parallel),
	}, nil
}

// fileLoops lists a parsed file's loops in the order the engine reports
// them: walk order, then stably sorted by line.
func fileLoops(file *cast.File) []cast.Stmt {
	var loops []cast.Stmt
	for _, fn := range file.Funcs {
		cast.Walk(fn.Body, func(n cast.Node) bool {
			switch n.(type) {
			case *cast.For, *cast.While:
				loops = append(loops, n.(cast.Stmt))
			}
			return true
		})
	}
	sort.SliceStable(loops, func(i, j int) bool { return loops[i].Pos().Line < loops[j].Pos().Line })
	return loops
}

// definedFuncs maps each function with a body to its declaration, as the
// engine passes it to the aug-AST builder.
func definedFuncs(file *cast.File) map[string]*cast.FuncDecl {
	funcs := map[string]*cast.FuncDecl{}
	for _, fn := range file.Funcs {
		if fn.Body != nil {
			funcs[fn.Name] = fn
		}
	}
	return funcs
}

// inputDigest fingerprints exactly what the program receives.
func inputDigest(ins []input) string {
	h := sha256.New()
	for _, in := range ins {
		fmt.Fprintf(h, "%s\x00%s\x00", in.name, in.src)
	}
	return hex.EncodeToString(h.Sum(nil))
}
