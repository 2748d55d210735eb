package dsp

import "fmt"

// Mat is a dense column-major matrix: element (i,j) lives at
// Data[i+j*Rows]. Column-major is the natural layout for the spectrogram
// kernels — a spectrogram block stores one STFT window per column, so
// appending a window, projecting a window onto a basis and the
// column-sweep inner loops of QR and the randomized SVD all walk
// contiguous memory.
//
// All kernels write into caller-provided destinations and reuse backing
// arrays via Reshape, so a steady-state caller (the streaming denoiser
// refactoring every stride windows) performs zero allocations.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates an m×n zero matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Reshape resizes m to rows×cols, reusing the backing array when it is
// large enough (contents become undefined) and growing it otherwise.
func (m *Mat) Reshape(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i+j*m.Rows] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i+j*m.Rows] = v }

// Col returns column j as a slice aliasing the matrix storage.
func (m *Mat) Col(j int) []float64 {
	return m.Data[j*m.Rows : (j+1)*m.Rows : (j+1)*m.Rows]
}

// CopyFrom makes m a same-shape copy of a (reusing m's backing array).
func (m *Mat) CopyFrom(a *Mat) {
	m.Reshape(a.Rows, a.Cols)
	copy(m.Data, a.Data)
}

// Zero clears every element.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// FrobeniusSq returns the squared Frobenius norm, the total energy the
// denoiser's rank/energy accounting is measured against.
func (m *Mat) FrobeniusSq() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return s
}

// MulInto computes dst = a·b. dst is reshaped to a.Rows×b.Cols; it must
// not alias a or b. The kernel runs column-major axpy sweeps: column j of
// dst accumulates b[k,j] times column k of a, so every inner loop walks
// contiguous memory.
func MulInto(dst, a, b *Mat) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dsp: MulInto shape mismatch: %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reshape(a.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		dj := dst.Col(j)
		for i := range dj {
			dj[i] = 0
		}
		bj := b.Col(j)
		for k, bkj := range bj {
			if bkj == 0 {
				continue
			}
			ak := a.Col(k)
			for i, aik := range ak {
				dj[i] += bkj * aik
			}
		}
	}
}

// MulATBInto computes dst = aᵀ·b. dst is reshaped to a.Cols×b.Cols; it
// must not alias a or b. Each element is a dot product of two columns —
// both contiguous in column-major storage — computed by dotsInto, four
// at a time and each bit-identical to dot.
func MulATBInto(dst, a, b *Mat) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("dsp: MulATBInto shape mismatch: (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reshape(a.Cols, b.Cols)
	for j := 0; j < b.Cols; j++ {
		dotsInto(dst.Col(j), a, b.Col(j))
	}
}

// dotsInto sets dst[i] = dot(a.Col(i), x) for every column of a, four
// columns per sweep over x: a single dot is bound by the latency of its
// one add chain, and four independent chains hide it. A final group of
// fewer than four columns repeats its last column and drops the spare
// sums. Each accumulator adds its products in index order exactly as
// dot does, so the results match dot bit for bit.
func dotsInto(dst []float64, a *Mat, x []float64) {
	for i := 0; i < a.Cols; i += 4 {
		c0 := a.Col(i)
		c1, c2, c3 := c0, c0, c0
		if i+1 < a.Cols {
			c1 = a.Col(i + 1)
		}
		if i+2 < a.Cols {
			c2 = a.Col(i + 2)
		}
		if i+3 < a.Cols {
			c3 = a.Col(i + 3)
		}
		c0, c1, c2, c3 = c0[:len(x)], c1[:len(x)], c2[:len(x)], c3[:len(x)]
		var s0, s1, s2, s3 float64
		for k, v := range x {
			s0 += c0[k] * v
			s1 += c1[k] * v
			s2 += c2[k] * v
			s3 += c3[k] * v
		}
		copy(dst[i:], []float64{s0, s1, s2, s3}[:min(4, a.Cols-i)])
	}
}

// MulVecInto computes dst = a·x for a vector x of length a.Cols; dst must
// have length a.Rows and not alias x.
func MulVecInto(dst []float64, a *Mat, x []float64) {
	if len(x) != a.Cols || len(dst) != a.Rows {
		panic(fmt.Sprintf("dsp: MulVecInto shape mismatch: %dx%d · %d -> %d", a.Rows, a.Cols, len(x), len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for k, xk := range x {
		if xk == 0 {
			continue
		}
		ak := a.Col(k)
		for i, aik := range ak {
			dst[i] += xk * aik
		}
	}
}

// MulTVecInto computes dst = aᵀ·x for a vector x of length a.Rows; dst
// must have length a.Cols and not alias x.
func MulTVecInto(dst []float64, a *Mat, x []float64) {
	if len(x) != a.Rows || len(dst) != a.Cols {
		panic(fmt.Sprintf("dsp: MulTVecInto shape mismatch: (%dx%d)ᵀ · %d -> %d", a.Rows, a.Cols, len(x), len(dst)))
	}
	dotsInto(dst, a, x)
}

// dot returns the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
