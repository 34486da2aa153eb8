package format

import (
	"bytes"
	"errors"
	"testing"
)

// signedContainer builds a small VersionHashed container with a couple of
// sections — enough structure for the hash to cover header, directory,
// payloads, and padding.
func signedContainer(t testing.TB) []byte {
	t.Helper()
	w := NewWriter(KindBundle)
	w.SetVersion(VersionHashed)
	w.Uint64s(1, []uint64{7, 11, 13})
	w.Bytes(2, []byte("payload bytes"))
	w.Strings(3, []string{"a", "b"})
	return w.Finish()
}

// TestSignVerifyRoundTrip pins the full sign/verify loop: a generated key
// signs a hashed container, the envelope parses, and Verify/VerifyHash
// both accept it.
func TestSignVerifyRoundTrip(t *testing.T) {
	privFile, pubFile, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	priv, err := ParsePrivateKey(privFile)
	if err != nil {
		t.Fatal(err)
	}
	data := signedContainer(t)
	sig, err := Sign(priv, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pubFile, sig, data); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	env, err := parseEnvelope(sig)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ContentHash(data)
	if err != nil {
		t.Fatalf("ContentHash: %v", err)
	}
	if env.Hash != sum {
		t.Error("envelope hash differs from the container's content hash")
	}
	if err := VerifyHash(pubFile, sig, sum); err != nil {
		t.Fatalf("VerifyHash: %v", err)
	}
	// The bare 32-byte public key (no NWP1 frame) must also verify.
	if err := Verify(pubFile[4:], sig, data); err != nil {
		t.Fatalf("Verify with bare key: %v", err)
	}
}

// TestVerifyRejections pins every way verification must fail: wrong key,
// corrupted signature bytes, corrupted hash field, tampered container,
// malformed envelopes, malformed keys, unhashed v1 containers and hashed
// containers that are not bundles.
func TestVerifyRejections(t *testing.T) {
	privFile, pubFile, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	priv, _ := ParsePrivateKey(privFile)
	data := signedContainer(t)
	sig, err := Sign(priv, data)
	if err != nil {
		t.Fatal(err)
	}

	_, otherPub, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(otherPub, sig, data); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong key: got %v, want ErrBadSignature", err)
	}

	// Flip one bit in every byte of the envelope: each mutation must fail
	// verification (magic/version/alg break parsing, key/hash/sig bytes
	// break the cryptographic check) and never panic.
	for i := range sig {
		mut := bytes.Clone(sig)
		mut[i] ^= 1
		if err := Verify(pubFile, mut, data); err == nil {
			t.Fatalf("envelope with byte %d flipped verified", i)
		}
	}

	// Tampering with the container flips its content hash, so NewReader
	// inside Verify rejects it before any signature math.
	mut := bytes.Clone(data)
	mut[len(mut)-1] ^= 1
	if err := Verify(pubFile, sig, mut); !errors.Is(err, ErrHashMismatch) {
		t.Errorf("tampered container: got %v, want ErrHashMismatch", err)
	}

	for _, bad := range [][]byte{nil, {}, sig[:sigSize-1], append(bytes.Clone(sig), 0)} {
		if err := Verify(pubFile, bad, data); err == nil {
			t.Errorf("%d-byte envelope verified", len(bad))
		}
	}

	// A v1 container has no hash: Sign and Verify must both refuse it
	// with ErrUnhashed.  A hashed container of another kind is no
	// top-level artifact either.
	w := NewWriter(KindBundle)
	w.Uint64s(1, []uint64{1})
	v1 := w.Finish()
	if _, err := Sign(priv, v1); !errors.Is(err, ErrUnhashed) {
		t.Errorf("Sign of an unhashed v1 container: got %v, want ErrUnhashed", err)
	}
	if err := Verify(pubFile, sig, v1); !errors.Is(err, ErrUnhashed) {
		t.Errorf("Verify of an unhashed v1 container: got %v, want ErrUnhashed", err)
	}
	w = NewWriter(KindDNWA)
	w.SetVersion(VersionHashed)
	w.Uint64s(1, []uint64{1})
	if _, err := Sign(priv, w.Finish()); err == nil {
		t.Error("Sign accepted a hashed container that is not a bundle")
	}

	if _, err := ParsePrivateKey(pubFile); err == nil {
		t.Error("ParsePrivateKey accepted a public key file")
	}
	if _, err := parsePublicKey(privFile); err == nil {
		t.Error("parsePublicKey accepted a private key file")
	}
	if _, err := parsePublicKey(pubFile[:10]); err == nil {
		t.Error("parsePublicKey accepted a truncated key file")
	}
}

// FuzzSignatureEnvelope feeds arbitrary bytes through the envelope parser
// and both verification entry points: malformed envelopes must fail with
// an error, never panic, and no mutation of a valid envelope may verify
// under the original key unless it is byte-identical to the original.
func FuzzSignatureEnvelope(f *testing.F) {
	privFile, pubFile, err := GenerateKey()
	if err != nil {
		f.Fatal(err)
	}
	priv, _ := ParsePrivateKey(privFile)
	data := signedContainer(f)
	sig, err := Sign(priv, data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sig)
	f.Add([]byte("NWS1"))
	f.Add([]byte{})
	f.Add(bytes.Clone(sig[:80]))
	mut := bytes.Clone(sig)
	mut[100] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, envelope []byte) {
		if len(envelope) > 1<<16 {
			envelope = envelope[:1<<16]
		}
		env, err := parseEnvelope(envelope)
		if err == nil && env == nil {
			t.Fatal("parseEnvelope returned neither envelope nor error")
		}
		verr := Verify(pubFile, envelope, data)
		if verr == nil && !bytes.Equal(envelope, sig) {
			t.Fatal("a forged envelope verified")
		}
		sum, _ := ContentHash(data)
		if err := VerifyHash(pubFile, envelope, sum); err == nil && !bytes.Equal(envelope, sig) {
			t.Fatal("a forged envelope passed VerifyHash")
		}
	})
}
