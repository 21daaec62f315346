/**
 * @file
 * Boxed<T>: an optional T held out of line.
 *
 * The subset of std::optional's surface the code base uses (the
 * has_value / bool test, *, -> and assignment from T), but an empty
 * Boxed is one null pointer.
 * A value that is rarely engaged and large when it is — the
 * capability of an integer value, engaged only for (u)intptr_t —
 * then costs eight bytes in every value that does not carry it.
 * Copies are deep, so a Boxed has value semantics like the optional
 * it replaces.
 */
#ifndef CHERISEM_SUPPORT_BOXED_H
#define CHERISEM_SUPPORT_BOXED_H

#include <memory>
#include <utility>

namespace cherisem {

template <typename T>
class Boxed
{
  public:
    Boxed() = default;
    Boxed(const T &v) : p_(std::make_unique<T>(v)) {}
    Boxed(T &&v) : p_(std::make_unique<T>(std::move(v))) {}
    Boxed(const Boxed &o) : p_(o.p_ ? std::make_unique<T>(*o.p_) : nullptr)
    {}
    Boxed(Boxed &&) noexcept = default;

    Boxed &
    operator=(const Boxed &o)
    {
        if (this != &o) {
            if (!o.p_)
                p_.reset();
            else if (p_)
                *p_ = *o.p_;
            else
                p_ = std::make_unique<T>(*o.p_);
        }
        return *this;
    }
    Boxed &operator=(Boxed &&) noexcept = default;
    Boxed &
    operator=(const T &v)
    {
        if (p_)
            *p_ = v;
        else
            p_ = std::make_unique<T>(v);
        return *this;
    }
    Boxed &
    operator=(T &&v)
    {
        if (p_)
            *p_ = std::move(v);
        else
            p_ = std::make_unique<T>(std::move(v));
        return *this;
    }

    bool has_value() const { return p_ != nullptr; }
    explicit operator bool() const { return p_ != nullptr; }

    const T &operator*() const { return *p_; }
    T &operator*() { return *p_; }
    const T *operator->() const { return p_.get(); }
    T *operator->() { return p_.get(); }

  private:
    std::unique_ptr<T> p_;
};

} // namespace cherisem

#endif // CHERISEM_SUPPORT_BOXED_H
