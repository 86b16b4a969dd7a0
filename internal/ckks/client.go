package ckks

import (
	"math"

	"heap/internal/rlwe"
)

// Client bundles the user-side objects: encoder, encryptor, decryptor.
type Client struct {
	Params  *Parameters
	Encoder *Encoder
	enc     *rlwe.Encryptor
	dec     *rlwe.Decryptor
}

// NewClient builds the client side for a secret key.
func NewClient(params *Parameters, sk *rlwe.SecretKey, seed uint64) *Client {
	return &Client{
		Params:  params,
		Encoder: NewEncoder(params),
		enc:     rlwe.NewEncryptor(params.Parameters, sk, seed),
		dec:     rlwe.NewDecryptor(params.Parameters, sk),
	}
}

// EncryptAtLevel encodes and encrypts a complex vector at a level with the
// default scale.
func (c *Client) EncryptAtLevel(values []complex128, level int) *rlwe.Ciphertext {
	pt := c.Encoder.EncodeAtLevel(values, c.Params.DefaultScale, level)
	return c.enc.EncryptPolyAtLevel(pt, level, c.Params.DefaultScale)
}

// Encrypt encrypts at the maximum level.
func (c *Client) Encrypt(values []complex128) *rlwe.Ciphertext {
	return c.EncryptAtLevel(values, c.Params.MaxLevel())
}

// Decrypt returns the decoded slot values of a ciphertext.
func (c *Client) Decrypt(ct *rlwe.Ciphertext) []complex128 {
	return c.Encoder.Decode(c.dec.PhaseCentered(ct), ct.Scale)
}

// NoiseBits measures the ciphertext's effective noise: it decrypts, compares
// against the expected slot values, and returns log2 of the largest absolute
// error times the scale — i.e. the noise magnitude in bits. A healthy
// ciphertext reports far fewer bits than log2(Scale); diagnostics for
// parameter tuning and bootstrap-quality tracking.
func (c *Client) NoiseBits(ct *rlwe.Ciphertext, expected []complex128) float64 {
	got := c.Decrypt(ct)
	worst := 0.0
	for i := range expected {
		re := real(got[i]) - real(expected[i])
		im := imag(got[i]) - imag(expected[i])
		if e := re*re + im*im; e > worst {
			worst = e
		}
	}
	if worst == 0 {
		return 0
	}
	return 0.5*math.Log2(worst) + math.Log2(ct.Scale)
}
