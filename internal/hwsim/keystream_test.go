package hwsim

import (
	"testing"

	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// TestBRKWireBlobMatchesSerializer cross-checks the model's key-streaming
// traffic formula against the real serializer, for both key kinds:
// BRKWireBlobBytes for a ParamSet mirroring a software parameter set must
// equal both tfhe.BRKBlobBytes (the arithmetic bound the cluster's chunked
// upload validates offers against) and the byte length an actual serialized
// blind-rotate key produces. This is the wire analog of
// TestKeyReuseMatchesSoftwareCounters: if the serializer format drifts, the
// model's cold-join traffic predictions drift with it, and this test pins
// the two together.
func TestBRKWireBlobMatchesSerializer(t *testing.T) {
	const (
		logN   = 6
		limbs  = 2
		aux    = 2
		dnum   = 2
		lweDim = 12
	)
	q := ring.GenerateNTTPrimes(40, logN, limbs)
	up := ring.GenerateNTTPrimesUp(40, logN, aux)
	params := rlwe.MustParameters(logN, q, up, ring.DefaultSigma, dnum)

	// The mirrored model ParamSet: h=1 RGSW rows, d=dnum gadget digits,
	// 64-bit storage words — the same storage convention BRKKeyBytes
	// documents.
	ps := ParamSet{LogN: logN, Limbs: limbs, LimbBits: 40, AuxLimbs: aux, NT: lweDim, D: dnum, H: 1}

	kg := rlwe.NewKeyGenerator(params, 7)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	for _, c := range []struct {
		secret rlwe.SecretDist
		binary bool
		rgsws  int64
	}{{rlwe.SecretBinary, true, 1}, {rlwe.SecretTernary, false, 2}} {
		if got, want := tfhe.BRKBlobBytes(params, lweDim, c.binary), int(ps.BRKWireBlobBytes(c.binary)); got != want {
			t.Fatalf("binary=%v: tfhe.BRKBlobBytes = %d, model BRKWireBlobBytes = %d", c.binary, got, want)
		}
		if got, want := tfhe.BRKRecordBytes(params, c.binary), int(c.rgsws*(ps.BRKKeyBytes()+64)); got != want {
			t.Fatalf("binary=%v: tfhe.BRKRecordBytes = %d, model per-record bytes = %d", c.binary, got, want)
		}

		// And against a real key, not just the arithmetic.
		brk := tfhe.GenBlindRotateKey(kg, kg.GenLWESecretKey(lweDim, c.secret), rsk)
		blob, err := brk.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(blob), int(ps.BRKWireBlobBytes(c.binary)); got != want {
			t.Fatalf("binary=%v: serialized BRK is %d bytes, model predicts %d", c.binary, got, want)
		}
	}

	// Paper-scale sanity: the binary blob is the paper's 1.76 GB of key
	// (BRKTotalBytes) plus headers only — the blob header and two 32-byte
	// gadget headers per index, under 0.002% at n_t=500.
	pp := PaperParams()
	if got, want := pp.BRKWireBlobBytes(true), pp.BRKTotalBytes()+24+int64(pp.NT)*64; got != want {
		t.Fatalf("paper-scale binary blob %d bytes, want BRKTotalBytes %d + headers = %d", got, pp.BRKTotalBytes(), want)
	}
}
