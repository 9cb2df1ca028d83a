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
