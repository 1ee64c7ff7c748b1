"""Session setup for the tests under tests/."""

import warnings

# When an example fails, hypothesis' pytest plugin imports this module to
# print a patch for it. The import pulls in libcst, which raises a
# DeprecationWarning, and filterwarnings = ["error"] turns that into an
# error the plugin does not catch: the session would end at the first
# failing example. Imported here with the warning ignored, the module is
# already loaded when the plugin asks for it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the patch itself
        pass
