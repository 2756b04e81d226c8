import hypothesis.strategies as st
from hypothesis import settings

from bangcalc.syntax import Abs, App, Bang, Der, Sub, Var

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

# A firing refreshes a binder y to y0 and, inside the renamed body, an
# inner binder y0 to y1; renaming y0 back to y leaves the inner binder at
# y1, so expansion has to restore the pre-step binder names.
REFRESHED_INNER_BINDERS = [
    r"((\x.\y0.y)[y \ a]) y",                       # dB spine
    r"((\x.\y0.y)[y \ a]) !y",                      # dB spine, banged argument
    r"(x y)[x \ (!(\y0. y))[y \ a]]",               # s! spine
    r"(\y. \y0. x y)[x \ !y]",                       # s! anti-substitution
    # two refreshed spine binders, the outer one renaming the inner's argument
    r"\y0. der((\y. x)[z0 \ der(x)][x \ x0] !((\y. y z0[y1 \ y][x0 \ x]) z))[x0 \ y]",
]


_names = st.sampled_from(["x", "y", "z", "u", "v"])


def bang_terms(max_leaves: int = 6):
    return st.recursive(
        st.builds(Var, _names),
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Abs, _names, sub),
            st.builds(Bang, sub),
            st.builds(Der, sub),
            st.builds(Sub, sub, _names, sub),
        ),
        max_leaves=max_leaves,
    )


def lambda_terms(max_leaves: int = 6):
    return st.recursive(
        st.builds(Var, _names),
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Abs, _names, sub),
            st.builds(Sub, sub, _names, sub),
        ),
        max_leaves=max_leaves,
    )


def lambda_values():
    return st.one_of(st.builds(Var, _names), st.builds(Abs, _names, lambda_terms(4)))
