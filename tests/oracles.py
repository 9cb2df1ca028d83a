"""Independent reference computations the tests check the library against.

Everything here is deliberately written from scratch on plain integers,
without importing anything from bgwkem, so each assertion compares two
separate routes to the same value.
"""


def kem_traces(p, n, alpha, gamma, t, recipients, user):
    """Trace-level run of the whole broadcast KEM in exponent arithmetic.

    Returns every quantity the scheme produces, as discrete logs mod p:
    the public key traces, share traces, header, session key, and the key
    recovered by `user` (which must be in `recipients`).
    """
    powers = {i: pow(alpha, i, p) for i in range(1, 2 * n + 1)}
    pk = {"g": 1, "v": gamma % p}
    for i, value in powers.items():
        if i != n + 1:
            pk[f"g{i}"] = value
    shares = {i: gamma * powers[i] % p for i in range(1, n + 1)}
    c0 = t % p
    c1 = t * (gamma + sum(powers[n + 1 - j] for j in recipients)) % p
    k = t * powers[n + 1] % p
    numerator = powers[user] * c1 % p
    denominator = (
        (shares[user] + sum(powers[n + 1 - j + user] for j in recipients if j != user))
        * c0
        % p
    )
    return {
        "pk": pk,
        "shares": shares,
        "c0": c0,
        "c1": c1,
        "k": k,
        "recovered": (numerator - denominator) % p,
    }


def enumerate_curve(q):
    """All affine points of y^2 = x^3 + x over F_q, by brute force."""
    points = []
    squares = {}
    for y in range(q):
        squares.setdefault(y * y % q, []).append(y)
    for x in range(q):
        for y in squares.get((x * x * x + x) % q, ()):
            points.append((x, y))
    return points


def fq2_mul(a, b, q):
    return ((a[0] * b[0] - a[1] * b[1]) % q, (a[0] * b[1] + a[1] * b[0]) % q)


def fq2_pow(a, e, q):
    result = (1, 0)
    while e > 0:
        if e & 1:
            result = fq2_mul(result, a, q)
        a = fq2_mul(a, a, q)
        e >>= 1
    return result


def fq2_inv(a, q):
    """Inverse in F_q[i] through the norm, with a Fermat inversion in F_q."""
    ninv = pow((a[0] * a[0] + a[1] * a[1]) % q, q - 2, q)
    return (a[0] * ninv % q, -a[1] * ninv % q)


def ec_add(P, Q, q):
    """Affine P + Q on y^2 = x^3 + x over F_q; None is infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        m = (3 * x1 * x1 + 1) * pow(2 * y1, q - 2, q) % q
    else:
        m = (y2 - y1) * pow(x2 - x1, q - 2, q) % q
    x3 = (m * m - x1 - x2) % q
    return (x3, (m * (x1 - x3) - y1) % q)


def ec_mul(k, P, q):
    """[k]P for any integer k, by right-to-left affine double-and-add."""
    if k < 0:
        k, P = -k, (None if P is None else (P[0], -P[1] % q))
    result = None
    while k > 0:
        if k & 1:
            result = ec_add(result, P, q)
        P = ec_add(P, P, q)
        k >>= 1
    return result


def curve_generator(q, p):
    """First point [(q+1)/p](x, y) of exact order p, scanning x = 1, 2, ...
    and taking y = rhs^((q+1)/4), the square root for q = 3 mod 4."""
    for x in range(1, q):
        rhs = (x * x * x + x) % q
        y = pow(rhs, (q + 1) // 4, q)
        if y * y % q != rhs:
            continue
        candidate = ec_mul((q + 1) // p, (x, y), q)
        if candidate is not None and ec_mul(p, candidate, q) is None:
            return candidate
    raise AssertionError(f"no order-{p} point on y^2 = x^3 + x over F_{q}")


def tate_pairing(P, Q, q, p):
    """Reduced Tate pairing of P and phi(Q), phi(x, y) = (-x, i*y).

    Miller's loop with affine points, every line and vertical evaluated
    exactly at phi(Q), then the full final exponentiation (q^2 - 1)/p.
    """
    if P is None or Q is None:
        return (1, 0)
    xt, yt = -Q[0] % q, Q[1]

    def line(A, B):
        (x1, y1), (x2, y2) = A, B
        if x1 == x2 and (y1 + y2) % q == 0:
            return ((xt - x1) % q, 0)
        if A == B:
            m = (3 * x1 * x1 + 1) * pow(2 * y1, q - 2, q) % q
        else:
            m = (y2 - y1) * pow(x2 - x1, q - 2, q) % q
        return ((-y1 - m * (xt - x1)) % q, yt % q)

    def vertical(U):
        return (1, 0) if U is None else ((xt - U[0]) % q, 0)

    f, R = (1, 0), P
    for bit in bin(p)[3:]:
        f = fq2_mul(fq2_mul(f, f, q), line(R, R), q)
        R = ec_add(R, R, q)
        f = fq2_mul(f, fq2_inv(vertical(R), q), q)
        if bit == "1":
            f = fq2_mul(f, line(R, P), q)
            R = ec_add(R, P, q)
            f = fq2_mul(f, fq2_inv(vertical(R), q), q)
    return fq2_pow(f, (q * q - 1) // p, q)


def prime_factors(n):
    """Distinct prime factors of n in ascending order, by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def naive_embedding_degree(q, p):
    """Least k with p | q^k - 1, each candidate checked by direct division."""
    for k in range(1, p):
        if (q**k - 1) % p == 0:
            return k
    raise AssertionError(f"no embedding degree below p for q={q}, p={p}")


def egcd_inverse(e, m):
    """Modular inverse by the extended Euclidean algorithm."""
    old_r, r = e % m, m
    old_s, s = 1, 0
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    assert old_r == 1, f"{e} not invertible mod {m}"
    return old_s % m


def crt_rsa_decrypt(c, d, p, q):
    """RSA decryption routed through the CRT instead of one big pow."""
    mp = pow(c % p, d % (p - 1), p)
    mq = pow(c % q, d % (q - 1), q)
    # Garner recombination
    qinv = egcd_inverse(q, p)
    return mq + q * ((mp - mq) * qinv % p)


def _first_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _root_fraction_bits(k, n):
    """The first 32 bits of the fractional part of the k-th root of n."""
    target = n << (32 * k)
    lo, hi = 0, 1 << 40
    while lo < hi:  # the largest r with r**k <= target
        mid = (lo + hi + 1) // 2
        if mid**k <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo & 0xFFFFFFFF


# FIPS 180-4: the initial state and round constants are the fractional
# parts of the square roots of the first 8 primes and the cube roots of
# the first 64.
SHA256_IV = tuple(_root_fraction_bits(2, p) for p in _first_primes(8))
_SHA256_K = [_root_fraction_bits(3, p) for p in _first_primes(64)]
_MASK32 = 0xFFFFFFFF


def _rotr(x, n):
    return (x >> n | x << (32 - n)) & _MASK32


def sha256_compress(state, block):
    """One SHA-256 compression of a 64-byte block into an 8-word state."""
    w = [int.from_bytes(block[i:i + 4], "big") for i in range(0, 64, 4)]
    for t in range(16, 64):
        s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
        s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
        w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
    a, b, c, d, e, f, g, h = state
    for t in range(64):
        t1 = h + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)) + ((e & f) ^ (~e & g))
        t1 = (t1 + _SHA256_K[t] + w[t]) & _MASK32
        t2 = (_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c))
        h, g, f, e, d, c, b, a = g, f, e, (d + t1) & _MASK32, c, b, a, (t1 + t2) & _MASK32
    return tuple((x + y) & _MASK32 for x, y in zip(state, (a, b, c, d, e, f, g, h)))


def sha256_padding(length):
    """The bytes SHA-256 appends to a message of `length` bytes."""
    return b"\x80" + bytes(-(length + 9) % 64) + (8 * length).to_bytes(8, "big")


def _sha256_finish(state, data, offset):
    """Finish SHA-256 over data from `state`, the chaining value after `offset` bytes."""
    message = data + sha256_padding(offset + len(data))
    for i in range(0, len(message), 64):
        state = sha256_compress(state, message[i:i + 64])
    return b"".join(word.to_bytes(4, "big") for word in state)


def sha256(data):
    return _sha256_finish(SHA256_IV, data, 0)


def sha256_extend(digest, length, suffix):
    """SHA-256(m || sha256_padding(length) || suffix) from digest = SHA-256(m).

    Only the digest and length = len(m) are needed, not m: this is the
    length extension that makes SHA-256(key || message) no MAC.
    """
    state = tuple(int.from_bytes(digest[i:i + 4], "big") for i in range(0, 32, 4))
    return _sha256_finish(state, suffix, length + len(sha256_padding(length)))
