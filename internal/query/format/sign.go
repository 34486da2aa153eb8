// sign.go implements detached ed25519 signatures over top-level artifacts,
// hashed version-2 bundles. The signature does not cover the raw container
// bytes directly: it signs the 32-byte content hash from the v2 header,
// which NewReader has already verified against the bytes. That keeps signing
// and verification O(1) once the hash is known — a server that has
// already opened a bundle can verify a signature against the in-memory
// hash without re-reading the file — while remaining exactly as strong,
// since the hash binds every byte of the container.
//
// Three tiny framed files ride along with the container:
//
//	NWS1 — detached signature envelope (144 bytes)
//	NWK1 — private key seed (32 bytes of ed25519 seed material)
//	NWP1 — public key (32 bytes)
//
// All are fixed-size little-endian structures like the container itself,
// so a corrupted or truncated envelope fails parsing with a typed error
// instead of producing a bogus verification result.
package format

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBadSignature is wrapped by Verify and VerifyHash when a structurally
// valid envelope fails cryptographic verification — wrong key, tampered
// container, or corrupted signature bytes.
//
//nwvet:oracle TestVerifyRejections, TestPutSignature and TestDistributionRefusesToSwap match it with errors.Is
var ErrBadSignature = errors.New("format: signature verification failed")

// Signature envelope layout (144 bytes, little-endian):
//
//	offset  size  field
//	0       4     magic "NWS1"
//	4       4     envelope version (1)
//	8       4     algorithm (1 = ed25519 over the container content hash)
//	12      4     reserved (0)
//	16      32    signer public key
//	48      32    content hash of the signed container
//	80      64    ed25519 signature over the 32-byte content hash
const (
	sigMagic   = "NWS1"
	sigVersion = 1
	sigAlgEd   = 1

	sigPubOff  = 16
	sigHashOff = sigPubOff + ed25519.PublicKeySize
	sigSigOff  = sigHashOff + HashSize
	sigSize    = sigSigOff + ed25519.SignatureSize
)

// Key file layouts (36 bytes): 4-byte magic then 32 bytes of key material.
// NWK1 holds an ed25519 seed (from which the private key is derived),
// NWP1 holds a public key.
const (
	privMagic   = "NWK1"
	pubMagic    = "NWP1"
	keyFileSize = 4 + 32
)

// sigEnvelope is a parsed detached signature.
type sigEnvelope struct {
	PublicKey []byte         // 32-byte ed25519 public key
	Hash      [HashSize]byte // content hash the signature covers
	Sig       []byte         // 64-byte ed25519 signature
}

// GenerateKey creates a fresh ed25519 keypair and returns the framed
// private (NWK1) and public (NWP1) key files.
func GenerateKey() (priv, pub []byte, err error) {
	public, private, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("format: generating key: %w", err)
	}
	priv = make([]byte, 0, keyFileSize)
	priv = append(priv, privMagic...)
	priv = append(priv, private.Seed()...)
	pub = make([]byte, 0, keyFileSize)
	pub = append(pub, pubMagic...)
	pub = append(pub, public...)
	return priv, pub, nil
}

// ParsePrivateKey parses an NWK1 key file into an ed25519 private key.
func ParsePrivateKey(data []byte) (ed25519.PrivateKey, error) {
	if len(data) != keyFileSize || string(data[:4]) != privMagic {
		return nil, fmt.Errorf("format: not a %s private key file", privMagic)
	}
	return ed25519.NewKeyFromSeed(data[4:]), nil
}

// parsePublicKey parses an NWP1 key file into an ed25519 public key.
// A bare 32-byte key (no frame) is also accepted, so servers can be
// handed raw key material.
func parsePublicKey(data []byte) (ed25519.PublicKey, error) {
	if len(data) == ed25519.PublicKeySize {
		return ed25519.PublicKey(append([]byte(nil), data...)), nil
	}
	if len(data) != keyFileSize || string(data[:4]) != pubMagic {
		return nil, fmt.Errorf("format: not a %s public key file", pubMagic)
	}
	return ed25519.PublicKey(append([]byte(nil), data[4:]...)), nil
}

// Sign produces a detached NWS1 envelope over a top-level artifact's
// content hash; anything else NewArtifactReader refuses, a Version1
// container with ErrUnhashed.
func Sign(priv ed25519.PrivateKey, container []byte) ([]byte, error) {
	hash, err := ContentHash(container)
	if err != nil {
		return nil, err
	}
	sig := ed25519.Sign(priv, hash[:])
	env := make([]byte, sigSize)
	copy(env, sigMagic)
	binary.LittleEndian.PutUint32(env[4:], sigVersion)
	binary.LittleEndian.PutUint32(env[8:], sigAlgEd)
	copy(env[sigPubOff:], priv.Public().(ed25519.PublicKey))
	copy(env[sigHashOff:], hash[:])
	copy(env[sigSigOff:], sig)
	return env, nil
}

// parseEnvelope validates the framing of a detached signature. It does
// not verify the signature — use Verify or VerifyHash for that.
func parseEnvelope(data []byte) (*sigEnvelope, error) {
	if len(data) != sigSize {
		return nil, fmt.Errorf("format: signature envelope is %d bytes, want %d", len(data), sigSize)
	}
	if string(data[:4]) != sigMagic {
		return nil, fmt.Errorf("format: bad signature magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != sigVersion {
		return nil, fmt.Errorf("format: unsupported signature envelope version %d", v)
	}
	if a := binary.LittleEndian.Uint32(data[8:]); a != sigAlgEd {
		return nil, fmt.Errorf("format: unsupported signature algorithm %d", a)
	}
	// The reserved field must be zero so envelopes stay canonical: two
	// distinct byte strings never verify as the same signature.
	if r := binary.LittleEndian.Uint32(data[12:]); r != 0 {
		return nil, fmt.Errorf("format: signature envelope reserved field is %d, want 0", r)
	}
	e := &sigEnvelope{
		PublicKey: append([]byte(nil), data[sigPubOff:sigPubOff+ed25519.PublicKeySize]...),
		Sig:       append([]byte(nil), data[sigSigOff:sigSize]...),
	}
	copy(e.Hash[:], data[sigHashOff:sigSigOff])
	return e, nil
}

// VerifyHash checks a detached envelope against a known content hash.
// pub is an NWP1 key file or bare 32-byte key. The envelope's embedded
// public key must match pub — an attacker must not get to choose the
// verification key — and its embedded hash must match the container's.
func VerifyHash(pub []byte, envelope []byte, hash [HashSize]byte) error {
	key, err := parsePublicKey(pub)
	if err != nil {
		return err
	}
	env, err := parseEnvelope(envelope)
	if err != nil {
		return err
	}
	if !key.Equal(ed25519.PublicKey(env.PublicKey)) {
		return fmt.Errorf("%w: envelope signed by a different key", ErrBadSignature)
	}
	if env.Hash != hash {
		return fmt.Errorf("%w: envelope covers hash %x, container hashes to %x", ErrBadSignature, env.Hash, hash)
	}
	if !ed25519.Verify(key, env.Hash[:], env.Sig) {
		return ErrBadSignature
	}
	return nil
}

// Verify checks a detached envelope against a top-level artifact. The
// artifact's own content hash is verified first (NewArtifactReader, which
// refuses a Version1 container with ErrUnhashed), then the signature over
// it.
func Verify(pub []byte, envelope []byte, container []byte) error {
	hash, err := ContentHash(container)
	if err != nil {
		return err
	}
	return VerifyHash(pub, envelope, hash)
}
