"""Independent dense reference for the message-passing model.

Deliberately naive: loops over nodes and neighbors, materializes the
attention-mixed transform matrix for every edge explicitly, and
normalizes with hand-rolled mean/variance. Shares no code path with the
vectorized implementation it is used to check.
"""

import numpy as np

from graph_checks import neighbors

ALPHA = 0.2


def _lrelu(x):
    return np.where(np.asarray(x) >= 0, x, ALPHA * np.asarray(x))


def mixed_transform(target_vec, bank, use_memory=True):
    """Materialize sum_m eta_m(target) W_m as an explicit (d, d) matrix."""
    d = bank.dim
    total = np.zeros((d, d))
    for m in range(bank.num_units):
        if use_memory:
            pre = float(np.dot(target_vec, bank.keys[m]) + bank.biases[m])
            eta = pre if pre >= 0 else ALPHA * pre
        else:
            eta = 1.0
        total = total + eta * bank.transforms[m]
    return total


def _message(target_vec, source_vec, bank, use_memory):
    return mixed_transform(target_vec, bank, use_memory) @ source_vec


def _layer_norm(x, scale, shift, eps):
    mu = float(np.sum(x)) / x.size
    var = float(np.sum((x - mu) ** 2)) / x.size
    return scale * ((x - mu) / np.sqrt(var + eps)) + shift


def dense_layer_step(emb, graph, params, step, variant):
    from dgnnrec.model import EdgeType

    I, J, R = graph.num_users, graph.num_items, graph.num_relations
    d = emb.shape[1]
    use_memory = variant.memory_attention
    nxt = np.zeros_like(emb)

    for node in range(I + J + R):
        own = emb[node]
        incoming = []
        if node < I:
            u = node
            for u2 in neighbors(graph.uu, u):
                incoming.append(_message(own, emb[int(u2)], params.banks[EdgeType.UU], use_memory))
            for j in neighbors(graph.ui, u):
                incoming.append(_message(own, emb[I + int(j)], params.banks[EdgeType.UI], use_memory))
            self_bank = params.banks[EdgeType.SELF_USER]
        elif node < I + J:
            v = node - I
            for u in neighbors(graph.iu, v):
                incoming.append(_message(own, emb[int(u)], params.banks[EdgeType.IU], use_memory))
            for r in neighbors(graph.ir, v):
                incoming.append(_message(own, emb[I + J + int(r)], params.banks[EdgeType.IR], use_memory))
            self_bank = params.banks[EdgeType.SELF_ITEM]
        else:
            r = node - I - J
            for v in neighbors(graph.ri, r):
                incoming.append(_message(own, emb[I + int(v)], params.banks[EdgeType.RI], use_memory))
            self_bank = params.banks[EdgeType.SELF_RELATION]

        agg = np.zeros(d)
        for msg in incoming:
            agg = agg + msg
        if incoming:
            agg = agg / len(incoming)
        if variant.layer_norm:
            y = _layer_norm(agg, params.ln_scale[step], params.ln_shift[step], params.ln_eps)
        else:
            y = agg
        nxt[node] = _lrelu(y) + _message(own, own, self_bank, use_memory)
    return nxt


def dense_forward(graph, params, variant):
    """Returns (layers, hstar) built entirely from the loops above."""
    layers = [params.embeddings.copy()]
    for step in range(params.num_layers):
        layers.append(dense_layer_step(layers[-1], graph, params, step, variant))
    conc = np.concatenate(layers, axis=1)
    hstar = np.zeros_like(conc)
    for node in range(conc.shape[0]):
        hstar[node] = _layer_norm(conc[node], 1.0, 0.0, params.ln_eps)
    return layers, hstar


def dense_predict(u, v, hstar, graph, variant):
    I = graph.num_users
    if variant.recalibration:
        ties = neighbors(graph.uu, u)
        tau = hstar[u].copy()
        for nb in ties:
            tau = tau + hstar[int(nb)]
        tau = tau / (len(ties) + 1)
        q = hstar[u] + tau
    else:
        q = hstar[u]
    return float(np.dot(q, hstar[I + v]))
