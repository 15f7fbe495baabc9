"""alienlang: vocabulary-level bijection keys for API-boundary text privacy.

Build seeded involutive token-ID permutations optimized to look alien while
staying embedding-close, translate text losslessly in both directions, emit
alienized fine-tuning corpora, and stress-test keys against recovery attacks.
"""

__version__ = "0.1.0"

from .attacks import (
    AttackReport,
    TruthOracle,
    bleu,
    frequency_attack,
    ngram_attack,
    nn_mapping_attack,
    rouge_l,
)
from .bijection import (
    BijectionKey,
    BuildConfig,
    OpacityReport,
    build_key,
    check_key,
    key_from_pairs,
    key_overlap,
    load_key,
    objective_value,
    opacity_report,
    pair_score,
    save_key,
    select_mask,
)
from .editdist import BACKEND
from .embeddings import (
    EmbeddingStore,
    derive_proxy_store,
    load_embeddings,
    normalize,
    proxy_embed,
    save_embeddings,
)
from .errors import (
    ArgumentError,
    CompatibilityError,
    CoverageError,
    DegenerateInputError,
    FormatError,
    ProtocolError,
    StabilityError,
    ToolkitError,
    TransportError,
    UnknownTokenError,
)
from .report import OverlapMatrix, emit_summary, overlap_matrix, read_summary, recovery_ratio
from .translator import (
    AlienDocument,
    alienize_dataset,
    decode_ids,
    decode_text,
    encode_ids,
    encode_text,
    read_id_stream,
    write_id_stream,
)
from .vocab import (
    TokenSequence,
    Vocabulary,
    detokenize,
    load_vocab,
    reference_tokenize,
    save_vocab,
    write_pretokenized,
)

# The probe's names load its module, and with it urllib.request, http.client
# and ssl, on first use: only ``attack probe`` sends requests.
_PROBE_NAMES = ("EndpointConfig", "llm_inverse_probe")


def __getattr__(name: str):
    if name in _PROBE_NAMES:
        from . import probe

        return getattr(probe, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
