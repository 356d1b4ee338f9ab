"""Variational preference model with a Gaussian-mixture latent prior.

A user-item pair is embedded, encoded to a diagonal Gaussian posterior
(mu, log-variance), sampled with the reparameterization trick, and decoded
back to a normalized rating through a sigmoid. A learned K-component
Gaussian mixture over the latent space yields soft cluster memberships
(responsibilities) for every pair; the hard assignment later selects the
expert-routing gate in the language model.

Conventions fixed here and relied on by the rest of the package:

- ratings are normalized to (0, 1) as rating / r_max before entering the
  loss, and the reconstruction likelihood is binary cross-entropy on that
  normalized value;
- posterior log-variances are clamped to [-10, 10] before exponentiation;
- mixture weights live as free logits (softmax on read), and component
  variances are floored at 1e-4;
- responsibilities used inside the closed-form KL are evaluated at the
  current latent sample and treated as constants: no gradient flows
  through them, only through mu, log-variance, and the prior parameters.

The training step runs on fused tensor ops, one tape record each: the
embedding-pair gather (:func:`~moerec.tensor.concat_rows`), the encoder
and decoder networks (:func:`~moerec.tensor.mlp`), the reparameterized
draw (:func:`~moerec.tensor.gaussian_sample`), the reconstruction loss
(:func:`~moerec.tensor.bce_with_logits`) and the closed-form KL
(:func:`~moerec.tensor.mixture_kl`). The op chains they replace are kept
as oracles in :mod:`moerec.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, NumericError, ShapeError, TableLookupError, TrainingError
from .rng import Rng
from . import tensor as T
from .tensor import Tensor

LOG_2PI = math.log(2.0 * math.pi)
LOG_VAR_MIN, LOG_VAR_MAX = -10.0, 10.0
PRIOR_VAR_FLOOR = 1e-4


@dataclass
class VaeConfig:
    n_users: int
    n_items: int
    d_emb: int = 32
    latent_dim: int = 8
    hidden: int = 64
    clusters: int = 3
    r_max: float = 5.0


class EmbeddingTables:
    """User and item embedding rows; the final row of each table is the
    shared fallback for ids unknown at inference time."""

    def __init__(self, config: VaeConfig, rng: Rng):
        d = config.d_emb
        self.n_users = config.n_users
        self.n_items = config.n_items
        self.user = Tensor(rng.normal((config.n_users + 1) * d).reshape(-1, d) * 0.1,
                           requires_grad=True)
        self.item = Tensor(rng.normal((config.n_items + 1) * d).reshape(-1, d) * 0.1,
                           requires_grad=True)

    def lookup(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """The (B, 2 * d_emb) rows ``[user embedding | item embedding]``."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() > self.n_users):
            raise TableLookupError(
                f"user index out of range [0, {self.n_users}]: {users.min()}..{users.max()}")
        if items.size and (items.min() < 0 or items.max() > self.n_items):
            raise TableLookupError(
                f"item index out of range [0, {self.n_items}]: {items.min()}..{items.max()}")
        return T.concat_rows(self.user, users, self.item, items)


class TwoLayerNet:
    """The tanh network (d_in -> hidden -> d_out) of both VAE halves, run as
    one fused :func:`~moerec.tensor.mlp`: the encoder maps a pair embedding
    to ``[mu | log-var]``, the decoder a latent code to a rating logit."""

    def __init__(self, d_in: int, hidden: int, d_out: int, rng: Rng):
        self.w1 = Tensor(rng.normal(d_in * hidden).reshape(d_in, hidden) / math.sqrt(d_in),
                         requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(hidden * d_out).reshape(hidden, d_out) / math.sqrt(hidden),
                         requires_grad=True)
        self.b2 = Tensor(np.zeros(d_out), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.mlp(x, self.w1, self.b1, self.w2, self.b2)


class GmmPrior:
    """Mixture weights (as free logits), component means and log-variances."""

    def __init__(self, pi_logits, mu, log_var):
        self.pi_logits = pi_logits if isinstance(pi_logits, Tensor) else Tensor(
            pi_logits, requires_grad=True)
        self.mu = mu if isinstance(mu, Tensor) else Tensor(mu, requires_grad=True)
        self.log_var = log_var if isinstance(log_var, Tensor) else Tensor(
            log_var, requires_grad=True)

    @classmethod
    def standard_normal(cls, clusters: int, latent_dim: int) -> "GmmPrior":
        return cls(np.zeros(clusters), np.zeros((clusters, latent_dim)),
                   np.zeros((clusters, latent_dim)))

    @property
    def clusters(self) -> int:
        return self.pi_logits.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.mu.shape[1]

    def pi(self) -> np.ndarray:
        """Mixture weights: positive, summing to one."""
        shifted = self.pi_logits.data - self.pi_logits.data.max()
        e = np.exp(shifted)
        return e / e.sum()

    def log_pi(self) -> np.ndarray:
        shifted = self.pi_logits.data - self.pi_logits.data.max()
        return shifted - np.log(np.exp(shifted).sum())

    def var(self) -> np.ndarray:
        """Component variances with the documented floor applied."""
        return np.exp(np.clip(self.log_var.data, math.log(PRIOR_VAR_FLOOR), LOG_VAR_MAX))


@dataclass
class LatentSample:
    """One reparameterized draw: z = mu + eps * exp(log_var / 2), exactly."""

    mu: Tensor
    log_var: Tensor
    eps: np.ndarray
    z: Tensor


def log_normal_diag(z: Tensor, mu: Tensor, var: Tensor) -> Tensor:
    """Log-density of z under a diagonal Gaussian; differentiable."""
    if np.any(var.data <= 0):
        raise NumericError("log_normal_diag requires strictly positive variance")
    diff = z - mu
    terms = T.log(var) + diff * diff / var
    return (terms.sum() + float(z.size) * LOG_2PI) * -0.5


def _log_normal_diag_np(z: np.ndarray, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Rows of z (B,D) against components mu/var (K,D); returns (B,K)."""
    z = z[:, None, :]
    quad = (z - mu[None]) ** 2 / var[None]
    return -0.5 * (LOG_2PI * mu.shape[1] + np.log(var[None]).sum(-1) + quad.sum(-1))


def log_component_scores(prior: GmmPrior, z: np.ndarray) -> np.ndarray:
    """log pi_c + log N(z | component c) per row of z; shape (B, K)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    return prior.log_pi()[None, :] + _log_normal_diag_np(z, prior.mu.data, prior.var())


def gmm_posterior_batch(prior: GmmPrior, z: np.ndarray) -> np.ndarray:
    """Responsibilities for each row of z, computed via a max-shifted
    softmax over log-space scores so joint underflow cannot occur."""
    scores = log_component_scores(prior, z)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reparameterize(mu: Tensor, log_var: Tensor, rng: Rng,
                   eps_override: Optional[np.ndarray] = None) -> LatentSample:
    """Draw z = mu + eps * sigma with eps ~ N(0, I) from the seeded stream.

    log_var is clamped to [-10, 10] first; the sample stores the clamped
    tensor, so the z identity holds on the stored fields. Gradients flow
    through mu and log_var only, never through eps. `eps_override` is a
    test hook for deterministic paths (e.g. eps = 0 pins z to the mean).
    """
    if eps_override is None:
        eps = rng.normal(mu.size).reshape(mu.shape)
    else:
        eps = np.broadcast_to(np.asarray(eps_override, dtype=np.float64), mu.shape).copy()
    z = T.gaussian_sample(mu, log_var, eps, LOG_VAR_MIN, LOG_VAR_MAX)
    # the draw clamps inside its op; the KL term takes the clamped tensor
    return LatentSample(mu=mu, log_var=T.clip(log_var, LOG_VAR_MIN, LOG_VAR_MAX),
                        eps=eps, z=z)


def kl_closed_form_batch(mu: Tensor, log_var: Tensor, gamma: np.ndarray,
                         prior: GmmPrior) -> Tensor:
    """Closed-form KL from N(mu, diag var) x gamma to the mixture joint.

    Per row b:
        0.5 * sum_c g_bc * sum_d [ log vbar_cd + var_bd / vbar_cd
                                   + (mu_bd - mbar_cd)^2 / vbar_cd ]
        - sum_c g_bc * (log pi_c - log g_bc)
        - 0.5 * sum_d log var_bd  -  D/2

    gamma enters as a constant (already normalized); zero entries follow
    the 0 * log(pi/0) = 0 convention. Differentiable in mu, log_var and
    all prior parameters. Returns a (B,) tensor of per-row KL values,
    each nonnegative up to sampling of gamma. The component log-variances
    are clamped to [log 1e-4, 10] first. Runs as one fused op,
    :func:`moerec.tensor.mixture_kl`.
    """
    return T.mixture_kl(mu, log_var, np.atleast_2d(gamma), prior.pi_logits, prior.mu,
                        prior.log_var, math.log(PRIOR_VAR_FLOOR), LOG_VAR_MAX)


class VaeGmm:
    """Embeddings + encoder + decoder + mixture prior, as one unit."""

    def __init__(self, config: VaeConfig, rng: Rng):
        self.config = config
        self.tables = EmbeddingTables(config, rng.substream("embeddings"))
        self.encoder = TwoLayerNet(2 * config.d_emb, config.hidden, 2 * config.latent_dim,
                                   rng.substream("encoder"))
        self.decoder = TwoLayerNet(config.latent_dim, config.hidden, 1, rng.substream("decoder"))
        # starts as a single standard component; replaced after warm-up
        self.prior = GmmPrior.standard_normal(1, config.latent_dim)

    def params(self) -> dict:
        return {
            "vae.embeddings.user": self.tables.user,
            "vae.embeddings.item": self.tables.item,
            **{f"vae.{net}.{name}": getattr(getattr(self, net), name)
               for net in ("encoder", "decoder") for name in ("w1", "b1", "w2", "b2")},
            "vae.gmm.pi_logits": self.prior.pi_logits,
            "vae.gmm.mu": self.prior.mu,
            "vae.gmm.log_var": self.prior.log_var,
        }

    def encode(self, users, items) -> tuple:
        """(mu, log_var) for a batch of index arrays, or single indices."""
        single = np.isscalar(users) or (np.ndim(users) == 0)
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        out = self.encoder.forward(self.tables.lookup(users, items))
        mu, log_var = out[:, :self.config.latent_dim], out[:, self.config.latent_dim:]
        if single:
            return mu.reshape(-1), log_var.reshape(-1)
        return mu, log_var

    def latent_mu(self, users, items) -> np.ndarray:
        mu, _ = self.encode(np.atleast_1d(users), np.atleast_1d(items))
        return mu.data

    def decode(self, z: Tensor) -> Tensor:
        """Predicted normalized rating in (0, 1)."""
        if z.data.ndim == 1:
            return T.sigmoid(self.decoder.forward(z.reshape(1, -1))[:, 0]).sum()
        return T.sigmoid(self.decoder.forward(z)[:, 0])

    def predict_rating(self, users, items) -> np.ndarray:
        """Deterministic normalized rating prediction along the mean path."""
        mu, _ = self.encode(np.atleast_1d(users), np.atleast_1d(items))
        return self.decode(mu).data

    def posteriors(self, users, items) -> np.ndarray:
        """Responsibilities (B, K) along the deterministic mean path."""
        return gmm_posterior_batch(self.prior, self.latent_mu(users, items))

    def gates(self, users, items) -> np.ndarray:
        """Hard cluster / gate index per pair (ties to the lowest index)."""
        return np.argmax(self.posteriors(users, items), axis=1)


def elbo_loss(model: VaeGmm, users, items, ratings_norm, beta: float, rng: Rng,
              eps_override: Optional[np.ndarray] = None,
              gamma_override: Optional[np.ndarray] = None) -> Tensor:
    """Mean over the batch of BCE(rating_norm, decoded) + beta * KL.

    This is the (negated, per-record) training objective: minimize it.
    Ratings must already be normalized into [0, 1].
    """
    ratings_norm = np.asarray(ratings_norm, dtype=np.float64)
    if ratings_norm.size and (ratings_norm.min() < 0.0 or ratings_norm.max() > 1.0):
        raise DataError("normalized ratings must lie in [0, 1]")
    if beta < 0:
        raise ValueError("beta must be nonnegative")

    mu, log_var = model.encode(np.atleast_1d(users), np.atleast_1d(items))
    sample = reparameterize(mu, log_var, rng, eps_override=eps_override)
    bce = T.bce_with_logits(model.decoder.forward(sample.z), ratings_norm)
    if beta == 0.0:
        return bce
    gamma = (gamma_override if gamma_override is not None
             else gmm_posterior_batch(model.prior, sample.z.data))
    kl = kl_closed_form_batch(sample.mu, sample.log_var, gamma, model.prior).mean()
    return bce + beta * kl


def init_gmm_prior(latents: np.ndarray, clusters: int, rng: Rng,
                   point_vars: Optional[np.ndarray] = None) -> GmmPrior:
    """Fit mixture parameters to warmed-up latent means.

    Seeds with k-means++, refines with Lloyd iterations until assignments
    stabilize, then sets weights to cluster frequencies and variances to
    the within-cluster variance per dimension (floored at 1e-4). When the
    encoder's per-point posterior variances are supplied, they are added to
    the spread (the usual mixture M-step form); without them the component
    variances undershoot the posterior scale and the variance-ratio term of
    the KL dwarfs everything else on the first joint steps.
    """
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2:
        raise ShapeError("latents must be a (n, latent_dim) array")
    distinct = np.unique(latents, axis=0)
    if distinct.shape[0] < clusters:
        raise TrainingError(
            f"need at least {clusters} distinct latent vectors, have {distinct.shape[0]}")

    n = latents.shape[0]
    centers = [latents[int(rng.integers(1, n)[0])]]
    while len(centers) < clusters:
        d2 = np.min([((latents - c) ** 2).sum(axis=1) for c in centers], axis=0)
        if d2.sum() <= 0:
            # all remaining mass sits on existing centers; spread over distinct points
            leftover = [p for p in distinct if not any(np.array_equal(p, c) for c in centers)]
            centers.append(leftover[0])
            continue
        centers.append(latents[rng.choice_weighted(d2)])
    centers = np.array(centers)

    assign = None
    for _ in range(100):
        d2 = ((latents[:, None, :] - centers[None]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        for c in range(clusters):
            mask = new_assign == c
            if mask.any():
                centers[c] = latents[mask].mean(axis=0)
            else:
                centers[c] = latents[d2.min(axis=1).argmax()]
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign

    pi = np.bincount(assign, minlength=clusters).astype(np.float64)
    pi = np.maximum(pi, 1.0) / np.maximum(pi, 1.0).sum()
    var = np.empty_like(centers)
    for c in range(clusters):
        mask = assign == c
        if not mask.any():
            var[c] = 1.0
            continue
        var[c] = latents[mask].var(axis=0)
        if point_vars is not None:
            var[c] += np.asarray(point_vars, dtype=np.float64)[mask].mean(axis=0)
    var = np.maximum(var, PRIOR_VAR_FLOOR)
    return GmmPrior(np.log(pi), centers, np.log(var))
